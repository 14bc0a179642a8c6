"""Step-size policies.

Four rules: the classic 2/(k+2) schedule, an open-loop g/(k+g) schedule, an
exact line search on the gap surrogate

    phi(alpha) = (1 - alpha) * gap_k + D(alpha),

and an approximate rule that estimates the curvature exponent on the fly and
plays g_k/(k+g_k).  Each is a :class:`StepRule` whose ``select`` holds the
rule; ``_RULES`` maps each config name to its class.  Every rule forces a
full first step (alpha_0 = 1), which all certificate identities require.

The surrogate phi is convex on [0, 1] (D is a Bregman distance along a
segment, convex in alpha) but possibly nonsmooth, so the minimizer brackets
with golden-section first and only then polishes with parabolic
interpolation; the polish makes quadratic surrogates exact to rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

from .oracles import INF, InfiniteValue, RangeError

__all__ = [
    "StepRule",
    "FixedHarmonic",
    "OpenLoop",
    "ExactLineSearch",
    "ApproxGamma",
]

log = logging.getLogger("fenchelduo")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_EVALS = 200  # surrogate evaluations per line search
_GAMMA_MAX = 4.0  # largest curvature exponent the approximate rule tries


# ---------------------------------------------------------------------------
# scalar minimization of the gap surrogate
# ---------------------------------------------------------------------------

def _parabola_vertex(a, fa, b, fb, c, fc):
    # vertex of the parabola through three points; None when degenerate
    db, dc = b - a, c - a
    num = dc * dc * (fb - fa) - db * db * (fc - fa)
    den = 2.0 * (dc * (fb - fa) - db * (fc - fa))
    if den == 0.0 or not math.isfinite(num) or not math.isfinite(den):
        return None
    v = a + num / den
    return v if math.isfinite(v) else None


def _minimize_step_surrogate(gap: float, d_fun: Callable[[float], float],
                             tol: float = 1e-10):
    """Minimize phi(a) = (1-a)*gap + d_fun(a) over [0, 1].

    Returns ``(alpha, phi(alpha), warned)``.  Non-finite phi values shrink the
    right end of the bracket; if phi is non-finite on all of (0, 1] the search
    gives up at 0 with ``warned = True``.  phi(0) = gap is always a candidate,
    so the returned value never exceeds the incoming gap.
    """

    def phi(a: float) -> float:
        try:
            d = d_fun(a)
        except InfiniteValue:
            return INF
        return (1.0 - a) * gap + d

    evals = 0
    phi0 = phi(0.0)
    hi = 1.0
    phi_hi = phi(hi)
    evals += 2
    while not math.isfinite(phi_hi) and hi > 1e-14 and evals < _MAX_EVALS:
        hi *= 0.5
        phi_hi = phi(hi)
        evals += 1
    if not math.isfinite(phi_hi):
        log.warning("line search: surrogate non-finite on all of (0, 1]; stepping 0")
        return 0.0, phi0, True

    # golden-section bracketing down to a width where parabolic interpolation
    # is numerically safe
    lo, phi_lo = 0.0, phi0
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    evals += 2
    best_a, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    while hi - lo > 1e-6 and evals < _MAX_EVALS:
        if f1 <= f2:
            hi, phi_hi = x2, f2
            x2, f2 = x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = phi(x1)
        else:
            lo, phi_lo = x1, f1
            x1, f1 = x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = phi(x2)
        evals += 1
        if f1 <= best_f:
            best_a, best_f = x1, f1
        if f2 < best_f:
            best_a, best_f = x2, f2

    # parabolic polish around the best bracketed triple; exact for quadratics
    para_a, para_f = None, INF
    a, b, c = lo, best_a, hi
    fa, fb, fc = phi_lo, best_f, phi_hi
    for _ in range(8):
        if not (a < b < c):
            break
        v = _parabola_vertex(a, fa, b, fb, c, fc)
        if v is None or not (a <= v <= c):
            break
        fv = phi(v)
        evals += 1
        if math.isfinite(fv) and fv < para_f:
            para_a, para_f = v, fv
        if abs(v - b) <= max(tol, 1e-14):
            break
        if v < b:
            if fv <= fb:
                c, fc, b, fb = b, fb, v, fv
            else:
                a, fa = v, fv
        else:
            if fv <= fb:
                a, fa, b, fb = b, fb, v, fv
            else:
                c, fc = v, fv
        if evals >= _MAX_EVALS:
            break

    # candidate order resolves exact ties: prefer 0, then the polished point
    candidates = [(0.0, phi0), (para_a, para_f) if para_a is not None else (best_a, best_f),
                  (best_a, best_f), (hi, phi_hi)]
    alpha, value = candidates[0]
    for cand_a, cand_f in candidates[1:]:
        if cand_f < value:
            alpha, value = cand_a, cand_f
    return float(alpha), float(value), False


# ---------------------------------------------------------------------------
# approximate curvature-exponent selection
# ---------------------------------------------------------------------------

def _exponent_acceptable(gamma_c: float, k: int, d_fun) -> bool:
    # Probe D(a)/a^gamma_c at three step sizes around the candidate schedule
    # value.  For D ~ c * a^g the ratio grows with a when gamma_c <= g and
    # shrinks when gamma_c > g, so "nondecreasing toward larger a" accepts
    # exactly the exponents at or below the true one.
    a2 = gamma_c / (k + gamma_c)
    probes = [0.5 * a2, a2, min(1.0, 2.0 * a2)]
    ratios = []
    for a in probes:
        try:
            d = d_fun(a)
        except InfiniteValue:
            d = INF
        if not math.isfinite(d):
            return False
        ratios.append(d / a ** gamma_c)
    slack = 1e-8 * max(ratios) + 1e-15
    return ratios[0] <= ratios[2] + slack


# ---------------------------------------------------------------------------
# rule objects used by the engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepRule:
    """Base step rule; subclasses override :meth:`select`.

    ``select`` receives the iteration index, the current certified gap, and a
    callable ``d_fun(alpha)`` evaluating the surrogate's divergence term.
    ``is_schedule`` marks rules whose output depends on k alone, which the
    run-equivalence checks require.
    """

    is_schedule = False

    def select(self, k: int, gap: float, d_fun) -> float:  # pragma: no cover
        raise NotImplementedError

    @property
    def label(self) -> str:
        """The rule's config name, or its class name for a rule outside ``_RULES``."""
        names = {cls: name for name, cls in _RULES.items()}
        return names.get(type(self), type(self).__name__)


@dataclass(frozen=True)
class FixedHarmonic(StepRule):
    is_schedule = True

    def select(self, k, gap, d_fun):
        """The 2/(k+2) schedule; equals 1 at k = 0."""
        return 2.0 / (k + 2.0)


@dataclass(frozen=True)
class OpenLoop(StepRule):
    gamma: float = 2.0
    is_schedule = True

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise RangeError(f"open-loop exponent must be positive, got {self.gamma}")

    def select(self, k, gap, d_fun):
        return 1.0 if k == 0 else self.gamma / (k + self.gamma)


@dataclass(frozen=True)
class ExactLineSearch(StepRule):
    tol: float = 1e-10

    def select(self, k, gap, d_fun):
        if k == 0:
            return 1.0
        return _minimize_step_surrogate(gap, d_fun, self.tol)[0]


@dataclass(frozen=True)
class ApproxGamma(StepRule):
    delta: float = 0.1
    tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise RangeError(f"delta must lie in (0, 1), got {self.delta}")

    def select(self, k, gap, d_fun):
        """Step size g_k/(k+g_k) with g_k within delta of the curvature exponent.

        Binary search for the largest exponent the 3-point ratio probe accepts;
        falls back to the exact line search when even exponent 1 is rejected.
        """
        if k == 0:
            return 1.0
        if _exponent_acceptable(_GAMMA_MAX, k, d_fun):
            gamma_k = _GAMMA_MAX
        elif not _exponent_acceptable(1.0, k, d_fun):
            # bracket collapsed; the surrogate is not power-like here
            return _minimize_step_surrogate(gap, d_fun, self.tol)[0]
        else:
            lo, hi = 1.0, _GAMMA_MAX
            while hi - lo > 0.5 * self.delta:
                mid = 0.5 * (lo + hi)
                if _exponent_acceptable(mid, k, d_fun):
                    lo = mid
                else:
                    hi = mid
            gamma_k = lo
        return gamma_k / (k + gamma_k)


_RULES = {
    "fixed_harmonic": FixedHarmonic,
    "open_loop": OpenLoop,
    "exact_ls": ExactLineSearch,
    "approx_gamma": ApproxGamma,
}
