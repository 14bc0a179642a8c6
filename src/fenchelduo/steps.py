"""Step-size policies.

Three rules: the classic 2/(k+2) schedule, an open-loop g/(k+g) schedule, and
an exact line search on the gap surrogate

    phi(alpha) = (1 - alpha) * gap_k + D(alpha).

Each is a :class:`StepRule` whose ``select`` holds the rule; ``_RULES`` maps
each config name to its class.  Every rule forces a full first step
(alpha_0 = 1), which all certificate identities require.  Only the open-loop
rule has a setting, its exponent g; the line search's polish and fit
tolerances are the module constants below.

The surrogate phi is convex on [0, 1] (D is a Bregman distance along a
segment, convex in alpha) but possibly nonsmooth, so the minimizer brackets
with golden-section first and only then polishes with parabolic
interpolation; the polish makes quadratic surrogates exact to rounding.
A quadratic surrogate is common: for a quadratic f and an indicator h,
D(alpha) = c * alpha^2 in plain and sharp mode alike.  So when the first
four probes, at 0, 1 - G, G and 1 (G the golden ratio), lie on a convex
parabola, the search probes that parabola's vertex and, if phi meets it
there too, stops after five probes instead of about 37.
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
]

log = logging.getLogger("fenchelduo")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_POLISH_TOL = 1e-10  # the parabolic polish stops at a vertex this close to its best point
_FIT_TOL = 1e-12  # phi is a parabola when it meets it to this fraction of the probes' sizes


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


def _parabola_probe(phi, f0, x1, f1, x2, f2, f_one):
    # Whether phi is the parabola P through (0, f0), (x1, f1) and (x2, f2): P
    # must be convex and meet phi(1) = f_one and, when its vertex lies in
    # (0, 1), phi at the vertex, each to _FIT_TOL of the four values' sizes.
    # Returns [(vertex, phi(vertex))], or [] for a vertex outside (0, 1), when
    # it is; None on a mismatch.
    slope = (f1 - f0) / x1
    curv = ((f2 - f1) / (x2 - x1) - slope) / x2
    if not 0.0 < curv < INF:
        return None
    tol = _FIT_TOL * (abs(f0) + abs(f1) + abs(f2) + abs(f_one))

    def model(a):
        return f0 + a * (slope + curv * (a - x1))

    if not abs(model(1.0) - f_one) <= tol:
        return None
    vertex = 0.5 * (x1 - slope / curv)
    if not 0.0 < vertex < 1.0:
        return []
    fv = phi(vertex)
    return [(vertex, fv)] if abs(fv - model(vertex)) <= tol else None


def _least(candidates) -> float:
    # the first point of least value: list order resolves exact ties
    alpha, value = candidates[0]
    for cand_a, cand_f in candidates[1:]:
        if cand_f < value:
            alpha, value = cand_a, cand_f
    return float(alpha)


def _minimize_step_surrogate(gap: float, d_fun: Callable[[float], float]) -> float:
    """Minimize phi(a) = (1-a)*gap + d_fun(a) over [0, 1]; returns the step size.

    Non-finite phi values halve the right end of the bracket, down to 1e-14;
    if phi is non-finite on all of (0, 1] the search logs a warning and gives
    up at 0.  phi(0) = gap is always a candidate, so phi at the returned step
    size never exceeds the incoming gap.

    With no halving the first four probes are 0, 1, 1 - G and G.  When the
    parabola through 0, 1 - G and G is convex and meets phi at 1, and at its
    vertex if that lies in (0, 1), the search returns the best of these four
    or five points.  On any mismatch the golden stage goes on from the two
    golden values it has, so a surrogate that is not a parabola gets the
    same probes in the same order, after at most the one vertex probe.

    Every stage ends by construction: h <= 47 halvings, g golden steps to
    width 1e-6 with h + g <= 47, and 8 polish steps, so ``d_fun`` is called
    at most 2 + 2 + 47 + 8 = 59 times; a search with no halving, the only
    one that may probe a vertex, makes at most 2 + 2 + 1 + 29 + 8 = 42 calls,
    and 4 or 5 when phi is a parabola.
    """

    def phi(a: float) -> float:
        try:
            d = d_fun(a)
        except InfiniteValue:
            return INF
        return (1.0 - a) * gap + d

    phi0 = phi(0.0)
    hi = 1.0
    phi_hi = phi(hi)
    while not math.isfinite(phi_hi) and hi > 1e-14:
        hi *= 0.5
        phi_hi = phi(hi)
    if not math.isfinite(phi_hi):
        log.warning("line search: surrogate non-finite on all of (0, 1]; stepping 0")
        return 0.0

    # golden-section bracketing down to a width where parabolic interpolation
    # is numerically safe
    lo, phi_lo = 0.0, phi0
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    best_a, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    if hi == 1.0:
        fit = _parabola_probe(phi, phi0, x1, f1, x2, f2, phi_hi)
        if fit is not None:
            return _least([(0.0, phi0), *fit, (best_a, best_f), (hi, phi_hi)])
    while hi - lo > 1e-6:
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
        if math.isfinite(fv) and fv < para_f:
            para_a, para_f = v, fv
        if abs(v - b) <= _POLISH_TOL:
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

    # prefer 0 on exact ties, then the polished point
    return _least([(0.0, phi0), (para_a, para_f) if para_a is not None else (best_a, best_f),
                   (best_a, best_f), (hi, phi_hi)])


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
        if not 0.0 < self.gamma < INF:
            raise RangeError(f"open-loop exponent must be positive and finite, got {self.gamma}")

    def select(self, k, gap, d_fun):
        """The gamma/(k+gamma) schedule; equals 1 at k = 0."""
        return self.gamma / (k + self.gamma)


@dataclass(frozen=True)
class ExactLineSearch(StepRule):
    def select(self, k, gap, d_fun):
        if k == 0:
            return 1.0
        return _minimize_step_surrogate(gap, d_fun)


_RULES = {
    "fixed_harmonic": FixedHarmonic,
    "open_loop": OpenLoop,
    "exact_ls": ExactLineSearch,
}
