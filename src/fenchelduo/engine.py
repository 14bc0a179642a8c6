"""Iteration engine.

Three projection-free drivers built on one joint oracle step
``(x, u) -> (s, z) = ((h*)'(-A*u), f'(Ax))``, seen from the primal side, the
dual side, or both:

* :func:`run_gcs`   -- conditional-subgradient steps move the primal iterate
  x toward s and read u := z off it; the dual certificate aggregates the u_k;
* :func:`run_gmd`   -- mirror descent on the dual iterate: :func:`run_gcs` on
  ``dualize(spec)``, read back through the sign map; the primal certificate
  aggregates the mirror points;
* :func:`run_hybrid` -- both coordinates move with the same step size, which
  makes the certified gap exact.

All three run through one kernel.  A general linear map is threaded through
everywhere; the identity map is the special case with zero overhead.  Every
run records a :class:`Trace` with the full iterate history, both gap-bound
variants (plain and sharpened), the true duality gap of the certificate
pair, and a streaming residual of the exact certificate identity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .certificates import _step_increment
from .oracles import (
    INF,
    DomainError,
    InfiniteValue,
    ProblemSpec,
    RangeError,
    as_point,
    dualize,
    fenchel_young_residual,
    _oracle_point,
    _oracle_value,
    _primal_oracle_message,
)
from .steps import StepRule

__all__ = ["Trace", "run_gcs", "run_gmd", "run_hybrid"]

_FY_DEBUG_TOL = 1e-9


@dataclass
class Trace:
    """Per-iteration log of one run.

    Row k (1-based) is recorded after the k-th update: ``alphas[k-1]`` is the
    step size used, ``primal[k-1]``/``dual[k-1]`` the objective values of the
    current certificate pair, ``true_gap`` their sum, ``gap_plain``/
    ``gap_sharp`` the two certified bounds, ``residual`` the streaming defect
    of the exact identity behind the certificate, and ``t_ms`` wall-clock
    milliseconds since the run started.  Iterate histories keep one extra
    entry (index 0 is the start point).
    """

    algo: str
    mode: str = "plain"
    policy: str = "average"
    alphas: List[float] = field(default_factory=list)
    primal: List[float] = field(default_factory=list)
    dual: List[float] = field(default_factory=list)
    gap_plain: List[float] = field(default_factory=list)
    gap_sharp: List[float] = field(default_factory=list)
    true_gap: List[float] = field(default_factory=list)
    residual: List[float] = field(default_factory=list)
    t_ms: List[float] = field(default_factory=list)
    xs: List[np.ndarray] = field(default_factory=list)
    us: List[np.ndarray] = field(default_factory=list)
    ss: List[np.ndarray] = field(default_factory=list)
    zs: List[np.ndarray] = field(default_factory=list)
    vs: List[np.ndarray] = field(default_factory=list)
    ys: List[np.ndarray] = field(default_factory=list)
    certificate: Optional[np.ndarray] = None
    error: Optional[str] = None

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def gap_bound(self) -> np.ndarray:
        return np.asarray(self.gap_sharp if self.mode == "sharp" else self.gap_plain)

    def row(self, i: int) -> dict:
        return {
            "k": i + 1,
            "alpha": self.alphas[i],
            "primal": self.primal[i],
            "dual": self.dual[i],
            "gap_bound": (self.gap_sharp if self.mode == "sharp" else self.gap_plain)[i],
            "true_gap": self.true_gap[i],
            "residual": self.residual[i],
            "t_ms": self.t_ms[i],
        }


def _check_args(k_max: int, policy: str, mode: str):
    if k_max < 1:
        raise RangeError(f"k_max must be >= 1, got {k_max}")
    if policy not in ("average", "best"):
        raise RangeError(f"policy must be 'average' or 'best', got {policy!r}")
    if mode not in ("plain", "sharp"):
        raise RangeError(f"mode must be 'plain' or 'sharp', got {mode!r}")


def _fy_debug(spec, y=None, w=None):
    defect = fenchel_young_residual(spec, y=y, w=w)
    if defect > _FY_DEBUG_TOL:
        raise DomainError(f"conjugate-pair defect {defect:.3e} exceeds {_FY_DEBUG_TOL}")


def _finite_value(fn, arg, oracle: str) -> float:
    value = _oracle_value(fn, arg, oracle)
    if math.isinf(value):
        raise InfiniteValue(f"oracle {oracle} returned {value:+} at an iterate")
    return value


def _primal_value(spec: ProblemSpec, x) -> float:
    return (_finite_value(spec.f_val, spec.linmap.apply(x), "f_val")
            + _finite_value(spec.h_val, x, "h_val"))


def _dual_value(spec: ProblemSpec, u) -> float:
    return (_finite_value(spec.f_conj_val, u, "f_conj_val")
            + _finite_value(spec.h_conj_val, -spec.linmap.adjoint(u), "h_conj_val"))


def _run(hybrid: bool, spec: ProblemSpec, x, u, rule: StepRule, k_max: int,
         epsilon: Optional[float], policy: str, mode: str, debug: bool) -> Trace:
    """The joint-step kernel: gcs moves x (u := z), hybrid moves both with
    one step size.  gmd is this kernel's gcs path on ``dualize(spec)``.

    The certificate increment of a step is the primal-side divergence (f(A .)
    and h between x and s), plus for hybrid the same divergence on
    ``dualize(spec)`` from -u toward -z.  gcs certifies its dual side by the
    aggregate of the u_k instead of its iterate: their lambda-weighted
    average, or the first u_k of least dual value.
    """
    A, At = spec.linmap.apply, spec.linmap.adjoint
    dual = dualize(spec) if hybrid else None
    sharp_mode = mode == "sharp"
    trace = Trace(algo="hybrid" if hybrid else "gcs", mode=mode, policy=policy)
    trace.xs.append(x.copy())
    if hybrid:
        trace.us.append(u.copy())
    cert, best = None, INF  # gcs: the aggregated u_k, and its dual value under "best"
    avg = 0.0  # lambda-average of the aggregated u_k's dual values, for the residual

    def increment(a, sharp):
        # the Bregman term alone, or with sharp the pair (Bregman, sharpened)
        p = _step_increment(x, s, a, spec, sharp)
        if not hybrid:
            return p
        try:
            d = _step_increment(neg_u, neg_z, a, dual, sharp)
        except (DomainError, InfiniteValue) as exc:  # same type: a probe shrinks on +inf
            raise type(exc)(_primal_oracle_message(str(exc))) from exc
        return (p[0] + d[0], p[1] + d[1]) if sharp else p + d

    def probe(a):
        return increment(a, True)[1] if sharp_mode else increment(a, False)

    start = time.perf_counter()
    try:
        for k in range(k_max):
            z = _oracle_point(spec.f_grad, A(x), "f_grad")
            u = u if hybrid else z
            s = _oracle_point(spec.h_conj_grad, -At(u), "h_conj_grad")
            if hybrid:
                neg_u, neg_z = -u, -z
            else:
                step_value = _dual_value(spec, u)
            if debug:
                _fy_debug(spec, y=A(x), w=-At(u))

            alpha = 1.0 if k == 0 else float(rule.select(k, sharp if sharp_mode else plain, probe))
            if not (0.0 <= alpha <= 1.0):
                raise RangeError(f"rule produced step size {alpha} outside [0, 1]")

            if k == 0:
                plain = sharp = increment(1.0, False)
            else:
                d_plain, d_sharp = increment(alpha, True)
                plain = (1.0 - alpha) * plain + d_plain
                sharp = (1.0 - alpha) * sharp + d_sharp
            x = (1.0 - alpha) * x + alpha * s
            p_val = _primal_value(spec, x)
            # the identity behind the residual: avg + (moving sides' values) = sharp
            if hybrid:
                u = (1.0 - alpha) * u + alpha * z
                u_val = _dual_value(spec, u)
                current = p_val + u_val
            else:
                avg = (1.0 - alpha) * avg + alpha * step_value
                if policy == "average":
                    cert = u.copy() if k == 0 else (1.0 - alpha) * cert + alpha * u
                elif step_value < best:
                    best, cert = step_value, u.copy()
                u_val = _dual_value(spec, cert) if policy == "average" else best
                current = p_val

            trace.alphas.append(alpha)
            trace.ss.append(s)
            trace.xs.append(x.copy())
            trace.us.append(u.copy())
            if hybrid:
                trace.zs.append(z)
            trace.primal.append(p_val)
            trace.dual.append(-u_val)
            trace.gap_plain.append(plain)
            trace.gap_sharp.append(sharp)
            trace.true_gap.append(p_val + u_val)
            trace.residual.append(abs(avg - sharp + current))
            trace.t_ms.append((time.perf_counter() - start) * 1e3)
            if epsilon is not None and (sharp if sharp_mode else plain) < epsilon:
                break
    except (DomainError, InfiniteValue) as exc:
        trace.error = str(exc)
    point = u if hybrid else cert
    trace.certificate = None if point is None else point.copy()
    return trace


def run_gcs(spec: ProblemSpec, x0, rule: StepRule, k_max: int, *,
            epsilon: Optional[float] = None, policy: str = "average",
            mode: str = "plain", debug: bool = False) -> Trace:
    """Conditional-subgradient run from ``x0`` in dom(f' o A).

    Each step reads u_k = f'(Ax_k), targets s_k = (h*)'(-A*u_k) and moves
    x_{k+1} = (1-alpha_k) x_k + alpha_k s_k.  The dual certificate is the
    aggregate of the u_k under the configured policy.
    """
    _check_args(k_max, policy, mode)
    x = as_point(x0, spec.dim_x, "x0")
    return _run(False, spec, x, None, rule, k_max, epsilon, policy, mode, debug)


def run_gmd(spec: ProblemSpec, v0, rule: StepRule, k_max: int, *,
            epsilon: Optional[float] = None, policy: str = "average",
            mode: str = "plain", debug: bool = False) -> Trace:
    """Mirror-descent run from a dual point ``v0`` in dom((h*)' o A*): the
    conditional-subgradient run (x', u', s') of ``dualize(spec)`` from v0,
    read through the sign map (v, y, z) = (x', u', -s') (Bach's equivalence).

    Each step reads the mirror point y_k = (h*)'(A* v_k) and the subgradient
    z_k = f'(A y_k), then moves v_{k+1} = (1-alpha_k) v_k - alpha_k z_k.  The
    primal certificate is the aggregate of the y_k.
    """
    _check_args(k_max, policy, mode)
    v = as_point(v0, spec.dim_y, "v0")
    trace = _run(False, dualize(spec), v, None, rule, k_max, epsilon, policy, mode, debug)
    trace.algo = "gmd"
    trace.vs, trace.ys, trace.zs = trace.xs, trace.us, trace.ss
    trace.xs, trace.us, trace.ss = [], [], []
    for z in trace.zs:
        np.negative(z, out=z)
    trace.primal, trace.dual = [-d for d in trace.dual], [-p for p in trace.primal]
    if trace.error is not None:
        trace.error = _primal_oracle_message(trace.error)
    return trace


def run_hybrid(spec: ProblemSpec, x0, u0, rule: StepRule, k_max: int, *,
               epsilon: Optional[float] = None, policy: str = "average",
               mode: str = "plain", debug: bool = False) -> Trace:
    """Symmetric primal-dual run from admissible ``(x0, u0)``.

    Both coordinates move toward the joint oracle output
    (s_k, z_k) = ((h*)'(-A*u_k), f'(Ax_k)) with the same step size, and the
    certified bound coincides with the true duality gap at (x_k, u_k).  The
    iterates are their own certificate, so only ``policy="average"`` applies.
    """
    _check_args(k_max, policy, mode)
    if policy != "average":
        raise RangeError("hybrid runs certify their iterates; "
                         f"policy must be 'average', got {policy!r}")
    x = as_point(x0, spec.dim_x, "x0")
    u = as_point(u0, spec.dim_y, "u0")
    return _run(True, spec, x, u, rule, k_max, epsilon, policy, mode, debug)
