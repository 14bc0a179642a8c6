"""Iteration engine.

Three projection-free drivers built on one joint oracle step
``(x, u) -> (s, z) = ((h*)'(-A*u), f'(Ax))``, seen from the primal side, the
dual side, or both:

* :func:`run_gcs`   -- conditional-subgradient steps move the primal iterate
  x toward s and read u := z off it; the dual certificate is the better (by
  dual value) of the lambda-average of the u_k and the best u_k so far;
* :func:`run_gmd`   -- mirror descent on the dual iterate: :func:`run_gcs` on
  ``dualize(spec)``, read back through the sign map; the primal certificate
  is the same choice among the mirror points;
* :func:`run_hybrid` -- both coordinates move with the same step size, which
  makes the certified gap exact.

All three run through one kernel, whose dual side is the primal side of
``dualize(spec)``.  A general linear map is threaded through everywhere; the
identity map is the special case with zero overhead.  Oracle calls and
applications of A and A* are the cost of a run, so the kernel makes each
once where its value is reused unchanged: per step and side, one segment
serves the line-search probes and the certificate increment, whose point at
the chosen step size is the next iterate, evaluated once.  A step reads its
base's A(x), f(Ax) and h(x) off the step before and f'(Ax) off its oracle
output, so a probe reads f at its own point alone; a probe at step size 0,
whose point is the base, is answered with 0 unevaluated, and a call at the
step size evaluated last reuses it.  A step at step size 0 that leaves its
points as they were, byte for byte, is repeated bit for bit by the next,
whose probes read the values they returned there.  The values, step sizes
and traces are those of an uncached evaluation.  Every run records a
:class:`Trace` with both gap-bound variants, the true gap of the certificate
pair, a streaming residual of the certificate identity (the run's
Fenchel-Young check of its oracle pairs) and, unless the driver is called
with ``history=False``, the iterates the offline replays read (the oracle
outputs are functions of them).  Every oracle call is checked: an oracle
that raises, returns NaN, or returns an infinite value where the run needs a
finite one ends the run, and ``trace.error`` names the oracle of the user's
spec.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .oracles import (
    INF,
    DomainError,
    InfiniteValue,
    ProblemSpec,
    RangeError,
    as_point,
    bregman_f,
    dualize,
    _oracle_name,
    _oracle_point,
    _oracle_value,
    _snap,
)
from .steps import StepRule

__all__ = ["Trace", "run_gcs", "run_gmd", "run_hybrid"]


@dataclass
class Trace:
    """Per-iteration log of one run.

    Row k (1-based) is recorded after the k-th update: ``alphas[k-1]`` is the
    step size used, ``primal[k-1]``/``dual[k-1]`` the objective values of the
    current certificate pair, ``true_gap`` their difference (read off those
    two, not stored), ``gap_plain``/``gap_sharp`` the two certified bounds,
    ``residual`` the streaming defect of the exact identity behind the
    certificate, and ``t_ms`` wall-clock milliseconds since the run
    started.  The histories keep the iterates
    alone, K + 1 each (index 0 is the start point): ``xs`` for gcs, ``vs``
    for gmd, ``xs`` and ``us`` for hybrid, and no entry in the others.  A
    run with ``history=False`` keeps none: its histories are empty, and
    every other field is what the run with histories records.
    """

    algo: str
    mode: str = "plain"
    alphas: List[float] = field(default_factory=list)
    primal: List[float] = field(default_factory=list)
    dual: List[float] = field(default_factory=list)
    gap_plain: List[float] = field(default_factory=list)
    gap_sharp: List[float] = field(default_factory=list)
    residual: List[float] = field(default_factory=list)
    t_ms: List[float] = field(default_factory=list)
    xs: List[np.ndarray] = field(default_factory=list)
    us: List[np.ndarray] = field(default_factory=list)
    vs: List[np.ndarray] = field(default_factory=list)
    certificate: Optional[np.ndarray] = None
    error: Optional[str] = None

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def gap_bound(self) -> np.ndarray:
        return np.asarray(self.gap_sharp if self.mode == "sharp" else self.gap_plain)

    @property
    def true_gap(self) -> List[float]:
        return [p - d for p, d in zip(self.primal, self.dual)]


def _check_args(k_max: int, epsilon: Optional[float], mode: str, history: bool):
    # a bool is an int to Python, but True would run one step (and as epsilon, stop at 1)
    if isinstance(k_max, bool) or not isinstance(k_max, numbers.Integral):
        raise RangeError(f"k_max must be an integer, got {k_max!r}")
    if k_max < 1:
        raise RangeError(f"k_max must be >= 1, got {k_max}")
    if epsilon is not None and (isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real)
                                or math.isnan(epsilon)):
        raise RangeError(f"epsilon must be a number or None, got {epsilon!r}")
    if mode not in ("plain", "sharp"):
        raise RangeError(f"mode must be 'plain' or 'sharp', got {mode!r}")
    if not isinstance(history, (bool, np.bool_)):  # "False" would keep the histories
        raise RangeError(f"history must be True or False, got {history!r}")


def _objective(spec: ProblemSpec, x, y, h=None, f=None):
    # (f(y) + h(x), f(y), h(x)) with y = A(x), and h = h(x), f = f(y) when the caller
    # has them; a dual value f*(u) + h*(-A*u) is this on dualize(spec) at (-u, -A*u)
    f = _oracle_value(spec, "f_val", y, at="an iterate") if f is None else f
    h = _oracle_value(spec, "h_val", x, at="an iterate") if h is None else h
    return f + h, f, h


def _guarded(spec: ProblemSpec, coeff: float, value: float, where: str) -> float:
    # coeff * h(point) with explicit inf handling: a zero coefficient drops the
    # term before the value is used, so 0 * inf never occurs
    if coeff == 0.0:
        return 0.0
    if math.isinf(value):
        raise InfiniteValue(f"oracle {_oracle_name(spec, 'h_val')} returned +inf at the "
                            f"{where} point of a step")
    return coeff * value


class _Segment:
    """One step of ``spec`` from ``base`` toward ``target``, as its probes read it.

    ``increment(alpha, sharp)`` is the certificate increment at the
    interpolated point comb: the Bregman term D = D_f(A comb, A base), alone,
    or with ``sharp`` the pair (D, D plus the Jensen slack of h).  What every
    probe of the step shares is read once: f'(A base) is the step's oracle
    output ``g0``; A(base), f(A base) and h(base) come from the step before
    (``f0`` and ``h0`` are None on the first, plain, step, where f(A base) is
    read after f(A comb), as ``bregman_f`` reads it), and h(target) is read at
    the first sharp call, so a failing oracle raises where an uncached
    evaluation would.  The last call keeps its step size ``alpha`` and its
    comb, A(comb), f(A comb) (None on a closed form), D and, once read sharp,
    h(comb) as ``point``, ``image``, ``f``, ``d`` and ``h``, the next iterate
    and its values at the chosen step size.  A call at that step size reuses
    them, any other computes them afresh, bit for bit; one that raised keeps none.
    """

    def __init__(self, spec: ProblemSpec, base, target, y0, g0, f0, h0):
        self.spec, self.base, self.target, self.alpha = spec, base, target, None
        self.y0, self.g0, self.f0, self.h_base, self.h_target = y0, g0, f0, h0, None

    def increment(self, alpha: float, sharp: bool):
        spec = self.spec
        if alpha != self.alpha:
            self.alpha = None  # set again once D is computed
            comb = (1.0 - alpha) * self.base + alpha * self.target
            y, f = spec.linmap.apply(comb), None
            if spec.breg_f is not None:
                d = bregman_f(y, self.y0, spec)
            else:  # bregman_f's fallback, from the base values the step holds
                f = _oracle_value(spec, "f_val", y, at="the first Bregman argument")
                if self.f0 is None:
                    self.f0 = _oracle_value(spec, "f_val", self.y0, at="the Bregman base point",
                                            error=DomainError)
                d = _snap(f - self.f0 - float(np.dot(self.g0, y - self.y0)))
            self.alpha, self.point, self.image, self.f, self.d = alpha, comb, y, f, d
            self.h = _oracle_value(spec, "h_val", comb) if sharp else None
        elif sharp and self.h is None:  # a plain call's point, now read sharp
            self.h = _oracle_value(spec, "h_val", self.point)
        if not sharp:
            return self.d
        value = self.d + _guarded(spec, 1.0, self.h, "interpolated")
        value -= _guarded(spec, 1.0 - alpha, self.h_base, "base")
        if self.h_target is None:
            self.h_target = _oracle_value(spec, "h_val", self.target)
        value -= _guarded(spec, alpha, self.h_target, "target")
        return self.d, value

    def moved(self) -> bool:  # the last call's point is not the base, byte for byte
        return self.point.tobytes() != self.base.tobytes()


def _run(hybrid: bool, spec: ProblemSpec, x, u, rule: StepRule, k_max: int,
         epsilon: Optional[float], mode: str, history: bool) -> Trace:
    """The joint-step kernel: gcs moves x (u := z), hybrid moves both with
    one step size.  gmd is this kernel's gcs path on ``dualize(spec)``.

    The certificate increment of a step is the primal-side divergence (f(A .)
    and h between x and s), plus for hybrid the same divergence on
    ``dualize(spec)`` from -u toward -z.  Each side is one :class:`_Segment`
    per step, shared by every line-search probe and the increment at the
    chosen step size, which hands over the new iterate once evaluated: x,
    A(x), f(A x) and h(x), and hybrid's -u, -A*(u), h*(-A*u) and f*(u).  A
    dual value is the objective of ``dualize(spec)`` at (-u, -A*(u)).  The
    probes' values are kept by step size while the steps repeat: a step at
    alpha = 0 whose points equal their bases byte for byte hands the next
    the same bases, targets and carried values, on which oracles, functions
    of their arguments, return the same; any other step clears them.  gcs
    certifies its dual side by a point of the u_k instead of its iterate: at
    each k, the one of lower dual value (the average on a tie) of their
    lambda-weighted average and the first u_k of least dual value.  By weak
    duality either is valid, and neither enters the certified bound.
    """
    A, At = spec.linmap.apply, spec.linmap.adjoint
    dual = dualize(spec)
    sharp_mode = mode == "sharp"
    trace = Trace(algo="hybrid" if hybrid else "gcs", mode=mode)
    if history:
        trace.xs.append(x.copy())
        if hybrid:
            trace.us.append(u.copy())
    # gcs: the lambda-average of the u_k, the first u_k of least dual value and
    # that value, and the one of the two that certifies the last recorded row
    cert, best_u, best, point = None, None, INF, None
    avg = 0.0  # lambda-average of the u_k's dual values, for the residual

    def increment(a, sharp):
        # the Bregman term alone, or with sharp the pair (Bregman, sharpened)
        p = primal_seg.increment(a, sharp)
        if not hybrid:
            return p
        d = dual_seg.increment(a, sharp)
        return (p[0] + d[0], p[1] + d[1]) if sharp else p + d

    memo = {}  # probe values by step size, kept while the next step repeats this one

    def probe(a):
        if a == 0.0:  # comb is the base, bit for bit: D and h's Jensen slack are 0
            return 0.0
        value = memo.get(a)
        if value is None:
            value = memo[a] = increment(a, True)[1] if sharp_mode else increment(a, False)
        return value

    start = time.perf_counter()
    try:
        y, f_y, h_x, hc_w, f_conj_u = A(x), None, None, None, None
        w = -At(u) if hybrid else None
        for k in range(k_max):
            z = _oracle_point(spec, "f_grad", y)
            if not hybrid:
                u, w = z, -At(z)
            s = _oracle_point(spec, "h_conj_grad", w)
            primal_seg = _Segment(spec, x, s, y, z, f_y, h_x)
            if hybrid:
                dual_seg = _Segment(dual, -u, -z, w, s, hc_w, f_conj_u)
            else:
                step_value = _objective(dual, -u, w)[0]

            alpha = 1.0 if k == 0 else float(rule.select(k, sharp if sharp_mode else plain, probe))
            if not (0.0 <= alpha <= 1.0):
                raise RangeError(f"rule produced step size {alpha} outside [0, 1]")

            if k == 0:
                plain = sharp = increment(1.0, False)
            else:
                d_plain, d_sharp = increment(alpha, True)
                plain = (1.0 - alpha) * plain + d_plain
                sharp = (1.0 - alpha) * sharp + d_sharp
            # each segment's last increment was at alpha: its point is the next iterate
            x, y = primal_seg.point, primal_seg.image
            # an unmoved step leaves every input of the next one as it was, bit for bit
            if alpha != 0.0 or primal_seg.moved() or hybrid and dual_seg.moved():
                memo.clear()
            p_val, f_y, h_x = _objective(spec, x, y, primal_seg.h, primal_seg.f)
            # the identity behind the residual: avg + (moving sides' values) = sharp
            if hybrid:
                u, w = -dual_seg.point, dual_seg.image
                u_val, hc_w, f_conj_u = _objective(dual, dual_seg.point, w, dual_seg.h,
                                                   dual_seg.f)
                current = p_val + u_val
                if history:
                    trace.us.append(u.copy())
            else:
                avg = (1.0 - alpha) * avg + alpha * step_value
                cert = u.copy() if k == 0 else (1.0 - alpha) * cert + alpha * u
                u_val = _objective(dual, -cert, At(-cert))[0]
                current = p_val
                if step_value < best:  # u_k is the oracle's array: keep a copy
                    best, best_u = step_value, u.copy()
                point, u_val = (best_u, best) if best < u_val else (cert, u_val)
            trace.alphas.append(alpha)
            if history:
                trace.xs.append(x.copy())
            trace.primal.append(p_val)
            trace.dual.append(-u_val)
            trace.gap_plain.append(plain)
            trace.gap_sharp.append(sharp)
            trace.residual.append(abs(avg - sharp + current))
            trace.t_ms.append((time.perf_counter() - start) * 1e3)
            if epsilon is not None and (sharp if sharp_mode else plain) < epsilon:
                break
    except (DomainError, InfiniteValue) as exc:
        trace.error = str(exc)
    point = u if hybrid else point
    trace.certificate = None if point is None else point.copy()
    return trace


def run_gcs(spec: ProblemSpec, x0, rule: StepRule, k_max: int, *,
            epsilon: Optional[float] = None, mode: str = "plain", history: bool = True) -> Trace:
    """Conditional-subgradient run from ``x0`` in dom(f' o A).

    Each step reads u_k = f'(Ax_k), targets s_k = (h*)'(-A*u_k) and moves
    x_{k+1} = (1-alpha_k) x_k + alpha_k s_k.  The dual certificate at each k
    is the lambda-weighted average of the u_k or the first u_k of least dual
    value, whichever has the lower dual value.
    ``mode`` picks the bound: ``gap_sharp`` if ``"sharp"``, else ``gap_plain``;
    with ``epsilon`` the run stops after the first row whose bound is strictly
    below it.  ``history=False`` keeps no iterates, for a caller that reads
    the scalar columns alone; the replays need them.
    """
    _check_args(k_max, epsilon, mode, history)
    x = as_point(x0, spec.dim_x, "x0")
    return _run(False, spec, x, None, rule, k_max, epsilon, mode, history)


def run_gmd(spec: ProblemSpec, v0, rule: StepRule, k_max: int, *,
            epsilon: Optional[float] = None, mode: str = "plain", history: bool = True) -> Trace:
    """Mirror-descent run from a dual point ``v0`` in dom((h*)' o A*): the
    conditional-subgradient run (x', u', s') of ``dualize(spec)`` from v0,
    read through the sign map (v, y, z) = (x', u', -s') (Bach's equivalence).

    Each step reads the mirror point y_k = (h*)'(A* v_k) and the subgradient
    z_k = f'(A y_k), then moves v_{k+1} = (1-alpha_k) v_k - alpha_k z_k.  The
    primal certificate is the lower-valued of the lambda-average of the y_k
    and the first y_k of least primal value.  The trace keeps the v_k, the
    x' of the dual run, as ``vs``.  An oracle error in ``trace.error`` names
    the oracle of ``spec``, as ``dualize`` records it.
    ``mode`` picks the bound: ``gap_sharp`` if ``"sharp"``, else ``gap_plain``;
    with ``epsilon`` the run stops after the first row whose bound is strictly
    below it.  ``history=False`` keeps no iterates, for a caller that reads
    the scalar columns alone; the replays need them.
    """
    _check_args(k_max, epsilon, mode, history)
    v = as_point(v0, spec.dim_y, "v0")
    trace = _run(False, dualize(spec), v, None, rule, k_max, epsilon, mode, history)
    trace.algo, trace.vs, trace.xs = "gmd", trace.xs, []
    trace.primal, trace.dual = [-d for d in trace.dual], [-p for p in trace.primal]
    return trace


def run_hybrid(spec: ProblemSpec, x0, u0, rule: StepRule, k_max: int, *,
               epsilon: Optional[float] = None, mode: str = "plain",
               history: bool = True) -> Trace:
    """Symmetric primal-dual run from admissible ``(x0, u0)``.

    Both coordinates move toward the joint oracle output
    (s_k, z_k) = ((h*)'(-A*u_k), f'(Ax_k)) with the same step size, and the
    certified bound coincides with the true duality gap at (x_k, u_k).  The
    iterates are their own certificate.
    ``mode`` picks the bound: ``gap_sharp`` if ``"sharp"``, else ``gap_plain``;
    with ``epsilon`` the run stops after the first row whose bound is strictly
    below it.  ``history=False`` keeps no iterates, for a caller that reads
    the scalar columns alone; the replays need them.
    """
    _check_args(k_max, epsilon, mode, history)
    x = as_point(x0, spec.dim_x, "x0")
    u = as_point(u0, spec.dim_y, "u0")
    return _run(True, spec, x, u, rule, k_max, epsilon, mode, history)
