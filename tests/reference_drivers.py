"""Reference implementations of the three drivers, one literal loop each.

These are the conditional-subgradient, mirror-descent and symmetric loops
written out separately, with the gap recursion spelled out inline: the
plain bound accumulates Bregman increments, the sharpened bound the full
step divergences, both seeded by the Bregman distance of the forced full
first step.  They share the oracle-layer primitives (the checked oracle
calls and ``bregman_f``) with the package, and ``weight_rows``, which
neither its kernel nor its replays call, but none of its iteration or
certificate code, so comparing the package drivers against them (and
running the equivalence checks on them) stays a check of one wiring
against another.  The loops call ``bregman_f`` uncached, reading f and f'
at the base point afresh at every step size, while the kernel reads them
from the values it carries (f from the row before, f' from the step's
oracle output): the bit-for-bit comparison is what checks those carried
values.

The certificate code is spelled out here by hand: ``CertificateAggregate``
(the averaged and the best point, and the choice of the lower-valued of
the two, which the package's kernel keeps inline),
``step_divergence_primal`` (the sharpened increment, which the package's
kernel computes in ``engine._Segment.increment``, and the replay in
``certificates._divergence`` at the recorded end point of the step), and
the dual-side ``bregman_hconj`` and ``step_divergence_dual``, which the
package computes as the primal-side functions of ``dualize(spec)``.  The mirror-descent and
symmetric loops use these copies, never ``dualize``.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from fenchelduo.certificates import weight_rows
from fenchelduo.engine import Trace
from fenchelduo.oracles import (
    INF,
    DomainError,
    InfiniteValue,
    RangeError,
    StateError,
    as_point,
    bregman_f,
    _oracle_point,
    _oracle_value,
    _snap,
)


def bregman_hconj(v, u, spec):
    """Bregman distance D_{h*}(v, u) = h*(v) - h*(u) - <v - u, (h*)'(u)>."""
    if spec.breg_hconj is not None:
        return _snap(float(spec.breg_hconj(v, u)))
    hv = _oracle_value(spec, "h_conj_val", v)
    if math.isinf(hv):
        raise InfiniteValue("h* is +inf at the first Bregman argument")
    hu = _oracle_value(spec, "h_conj_val", u)
    if math.isinf(hu):
        raise DomainError("h* is +inf at the Bregman base point")
    g = _oracle_point(spec, "h_conj_grad", u)
    return _snap(hv - hu - float(np.dot(v - u, g)))


def _guarded(coeff, value, what):
    if coeff == 0.0:
        return 0.0
    if math.isinf(value):
        raise InfiniteValue(f"{what} is +inf inside a step divergence")
    return coeff * value


def step_divergence_primal(x, s, alpha, spec):
    """Bregman distance of f(A .) across the step from x toward s, plus the
    Jensen slack of h at the same interpolation."""
    A, h = spec.linmap.apply, spec.h_val
    comb = (1.0 - alpha) * x + alpha * s
    value = bregman_f(A(comb), A(x), spec)
    value += _guarded(1.0, float(h(comb)), "h at the interpolated point")
    value -= _guarded(1.0 - alpha, float(h(x)), "h at the base point")
    value -= _guarded(alpha, float(h(s)), "h at the target point")
    return value


def step_divergence_dual(v, neg_z, alpha, spec):
    """Bregman distance of h*(A* .) across the step from v toward -z, plus
    the Jensen slack of w -> f*(-w) at the same interpolation."""
    At = spec.linmap.adjoint
    comb = (1.0 - alpha) * v + alpha * neg_z
    value = bregman_hconj(At(comb), At(v), spec)
    value += _guarded(1.0, float(spec.f_conj_val(-comb)), "f* at the interpolated point")
    value -= _guarded(1.0 - alpha, float(spec.f_conj_val(-v)), "f* at the base point")
    value -= _guarded(alpha, float(spec.f_conj_val(-neg_z)), "f* at the target point")
    return value


@dataclass
class CertificateAggregate:
    """Running certificate candidates: the lambda-weighted average of the
    points, and the first point of least objective value."""

    average: Optional[np.ndarray] = None
    best_point: Optional[np.ndarray] = None
    best_value: float = INF

    def update(self, point, alpha, value):
        if self.average is None:
            if alpha != 1.0:
                raise StateError("averaged certificates require a full first step")
            self.average = np.array(point, dtype=float)
        else:
            self.average = (1.0 - alpha) * self.average + alpha * np.asarray(point, dtype=float)
        if value < self.best_value:
            self.best_value = float(value)
            self.best_point = np.array(point, dtype=float)
        return self

    def certify(self, average_value):
        """(point, value) of the candidate of lower value, the average on a tie."""
        if self.best_value < average_value:
            return self.best_point, self.best_value
        return self.average, average_value


def _check_args(k_max, mode):
    if k_max < 1:
        raise RangeError(f"k_max must be >= 1, got {k_max}")
    if mode not in ("plain", "sharp"):
        raise RangeError(f"mode must be 'plain' or 'sharp', got {mode!r}")


def _check_alpha(alpha):
    if not (0.0 <= alpha <= 1.0):
        raise RangeError(f"rule produced step size {alpha} outside [0, 1]")


def ref_md_identity_terms(trace, spec):
    """Per-step terms of the dual-run identity on the primal spec: the primal
    values at the mirror points, the dual step divergences, and the dual
    values at v_1..v_K.  The mirror points y_k = (h*)'(A* v_k) and the
    subgradients z_k = f'(A y_k) are evaluated here from the v_k."""
    A, At = spec.linmap.apply, spec.linmap.adjoint
    ys = [np.asarray(spec.h_conj_grad(At(v)), dtype=float) for v in trace.vs[:-1]]
    zs = [np.asarray(spec.f_grad(A(y)), dtype=float) for y in ys]
    pv = np.array([float(spec.f_val(A(y))) + float(spec.h_val(y)) for y in ys])
    div = np.array([step_divergence_dual(v, -z, a, spec)
                    for v, z, a in zip(trace.vs[:-1], zs, trace.alphas)])
    dual = np.array([float(spec.f_conj_val(-v)) + float(spec.h_conj_val(At(v)))
                     for v in trace.vs[1:]])
    return pv, div, dual


def ref_md_identity_residuals(trace, spec):
    """Relative residuals of the dual-run identity, replayed on the primal
    spec: the lambda-average of primal values at the mirror points, minus the
    mu-weighted dual step divergences, plus the dual value at v_k, with the
    weight rows of every k built explicitly."""
    pv, div, dual = ref_md_identity_terms(trace, spec)
    out = np.empty(len(trace.alphas))
    for k in range(1, len(trace.alphas) + 1):
        lam, mu = weight_rows(trace.alphas[:k])
        avg, d, current = float(lam @ pv[:k]), float(mu @ div[:k]), float(dual[k - 1])
        out[k - 1] = abs(avg - d + current) / (1.0 + abs(avg) + abs(d) + abs(current))
    return out


def ref_run_gcs(spec, x0, rule, k_max, *, epsilon=None, mode="plain"):
    _check_args(k_max, mode)
    x = as_point(x0, spec.dim_x, "x0")
    A, At = spec.linmap.apply, spec.linmap.adjoint
    trace = Trace(algo="gcs", mode=mode)
    trace.xs.append(x.copy())
    plain = sharp = None
    agg, cert = CertificateAggregate(), None
    dual_avg = 0.0
    start = time.perf_counter()
    try:
        for k in range(k_max):
            u = _oracle_point(spec, "f_grad", A(x))
            s = _oracle_point(spec, "h_conj_grad", -At(u))
            dual_val = _oracle_value(spec, "f_conj_val", u)
            dual_val += _oracle_value(spec, "h_conj_val", -At(u))

            if k == 0:
                alpha = 1.0
            else:
                def d_fun(a, xi=x, si=s):
                    if mode == "sharp":
                        return step_divergence_primal(xi, si, a, spec)
                    return bregman_f(A((1.0 - a) * xi + a * si), A(xi), spec)

                alpha = float(rule.select(k, sharp if mode == "sharp" else plain, d_fun))
            _check_alpha(alpha)

            if k == 0:
                plain = sharp = bregman_f(A(s), A(x), spec)
            else:
                keep = 1.0 - alpha
                plain = keep * plain + bregman_f(A(keep * x + alpha * s), A(x), spec)
                sharp = keep * sharp + step_divergence_primal(x, s, alpha, spec)
            agg.update(u, alpha, dual_val)
            dual_avg = (1.0 - alpha) * dual_avg + alpha * dual_val
            x = (1.0 - alpha) * x + alpha * s

            trace.alphas.append(alpha)
            trace.xs.append(x.copy())
            primal = _oracle_value(spec, "f_val", A(x)) + _oracle_value(spec, "h_val", x)
            avg_dual = _oracle_value(spec, "f_conj_val", agg.average)
            avg_dual += _oracle_value(spec, "h_conj_val", -At(agg.average))
            cert, cert_dual = agg.certify(avg_dual)
            trace.primal.append(primal)
            trace.dual.append(-cert_dual)
            trace.gap_plain.append(plain)
            trace.gap_sharp.append(sharp)
            trace.residual.append(abs(dual_avg - sharp + primal))
            trace.t_ms.append((time.perf_counter() - start) * 1e3)
            if epsilon is not None and (sharp if mode == "sharp" else plain) < epsilon:
                break
    except (DomainError, InfiniteValue) as exc:
        trace.error = str(exc)
    trace.certificate = None if cert is None else cert.copy()
    return trace


def ref_run_gmd(spec, v0, rule, k_max, *, epsilon=None, mode="plain"):
    _check_args(k_max, mode)
    v = as_point(v0, spec.dim_y, "v0")
    A, At = spec.linmap.apply, spec.linmap.adjoint
    trace = Trace(algo="gmd", mode=mode)
    trace.vs.append(v.copy())
    plain = sharp = None
    agg, cert = CertificateAggregate(), None
    primal_avg = 0.0
    start = time.perf_counter()
    try:
        for k in range(k_max):
            y = _oracle_point(spec, "h_conj_grad", At(v))
            z = _oracle_point(spec, "f_grad", A(y))
            primal_val = _oracle_value(spec, "f_val", A(y))
            primal_val += _oracle_value(spec, "h_val", y)

            if k == 0:
                alpha = 1.0
            else:
                def d_fun(a, vi=v, zi=z):
                    if mode == "sharp":
                        return step_divergence_dual(vi, -zi, a, spec)
                    return bregman_hconj(At((1.0 - a) * vi - a * zi), At(vi), spec)

                alpha = float(rule.select(k, sharp if mode == "sharp" else plain, d_fun))
            _check_alpha(alpha)

            if k == 0:
                plain = sharp = bregman_hconj(-At(z), At(v), spec)
            else:
                keep = 1.0 - alpha
                plain = keep * plain + bregman_hconj(At(keep * v - alpha * z), At(v), spec)
                sharp = keep * sharp + step_divergence_dual(v, -z, alpha, spec)
            agg.update(y, alpha, primal_val)
            primal_avg = (1.0 - alpha) * primal_avg + alpha * primal_val
            v = (1.0 - alpha) * v - alpha * z

            trace.alphas.append(alpha)
            trace.vs.append(v.copy())
            avg_primal = _oracle_value(spec, "f_val", A(agg.average))
            avg_primal += _oracle_value(spec, "h_val", agg.average)
            cert, cert_primal = agg.certify(avg_primal)
            dual_obj = _oracle_value(spec, "f_conj_val", -v)
            dual_obj += _oracle_value(spec, "h_conj_val", At(v))
            trace.primal.append(cert_primal)
            trace.dual.append(-dual_obj)
            trace.gap_plain.append(plain)
            trace.gap_sharp.append(sharp)
            trace.residual.append(abs(primal_avg - sharp + dual_obj))
            trace.t_ms.append((time.perf_counter() - start) * 1e3)
            if epsilon is not None and (sharp if mode == "sharp" else plain) < epsilon:
                break
    except (DomainError, InfiniteValue) as exc:
        trace.error = str(exc)
    trace.certificate = None if cert is None else cert.copy()
    return trace


def ref_run_hybrid(spec, x0, u0, rule, k_max, *, epsilon=None, mode="plain"):
    _check_args(k_max, mode)
    x = as_point(x0, spec.dim_x, "x0")
    u = as_point(u0, spec.dim_y, "u0")
    A, At = spec.linmap.apply, spec.linmap.adjoint
    trace = Trace(algo="hybrid", mode=mode)
    trace.xs.append(x.copy())
    trace.us.append(u.copy())
    plain = sharp = None
    start = time.perf_counter()
    try:
        for k in range(k_max):
            s = _oracle_point(spec, "h_conj_grad", -At(u))
            z = _oracle_point(spec, "f_grad", A(x))

            if k == 0:
                alpha = 1.0
            else:
                def d_fun(a, xi=x, ui=u, si=s, zi=z):
                    if mode == "sharp":
                        return (step_divergence_primal(xi, si, a, spec)
                                + step_divergence_dual(-ui, -zi, a, spec))
                    keep = 1.0 - a
                    d = bregman_f(A(keep * xi + a * si), A(xi), spec)
                    return d + bregman_hconj(-At(keep * ui + a * zi), -At(ui), spec)

                alpha = float(rule.select(k, sharp if mode == "sharp" else plain, d_fun))
            _check_alpha(alpha)

            if k == 0:
                plain = sharp = (bregman_f(A(s), A(x), spec)
                                 + bregman_hconj(-At(z), -At(u), spec))
            else:
                keep = 1.0 - alpha
                plain_inc = bregman_f(A(keep * x + alpha * s), A(x), spec)
                plain_inc += bregman_hconj(-At(keep * u + alpha * z), -At(u), spec)
                sharp_inc = step_divergence_primal(x, s, alpha, spec)
                sharp_inc += step_divergence_dual(-u, -z, alpha, spec)
                plain = keep * plain + plain_inc
                sharp = keep * sharp + sharp_inc
            x = (1.0 - alpha) * x + alpha * s
            u = (1.0 - alpha) * u + alpha * z

            trace.alphas.append(alpha)
            trace.xs.append(x.copy())
            trace.us.append(u.copy())
            primal = _oracle_value(spec, "f_val", A(x)) + _oracle_value(spec, "h_val", x)
            dual_obj = _oracle_value(spec, "f_conj_val", u)
            dual_obj += _oracle_value(spec, "h_conj_val", -At(u))
            trace.primal.append(primal)
            trace.dual.append(-dual_obj)
            trace.gap_plain.append(plain)
            trace.gap_sharp.append(sharp)
            trace.residual.append(abs(primal + dual_obj - sharp))
            trace.t_ms.append((time.perf_counter() - start) * 1e3)
            if epsilon is not None and (sharp if mode == "sharp" else plain) < epsilon:
                break
    except (DomainError, InfiniteValue) as exc:
        trace.error = str(exc)
    trace.certificate = u.copy()
    return trace
