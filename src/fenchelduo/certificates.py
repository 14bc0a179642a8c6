"""Duality-gap certificate bookkeeping.

* :func:`weight_rows` -- the averaging weights ``lambda^k_i`` and carry
  weights ``mu^k_i`` induced by the step sizes: at each step the new entry
  gets ``lambda = alpha_k``, ``mu = 1`` and all older entries are scaled by
  ``(1 - alpha_k)``.  With ``alpha_0 = 1`` the lambda row is a probability
  vector for every k.
* :func:`step_divergence_primal` -- the one-step increment of the
  recursive gap bound: the Bregman term of the smooth part (the plain bound)
  plus the Jensen slack of the nonsmooth part (the sharpened bound, never
  larger than plain).  The dual side's increment is the same function on
  :func:`~fenchelduo.oracles.dualize` of the spec, from v toward -z.

The ``*_identity_residuals`` functions replay a finished trace against the
exact algebraic identities the certificates are built on; they weight the
per-step terms by the recorded step sizes in closed form, as prefix sums
(``mu^k_i = C_k / C_i`` with ``C_k`` the product of ``(1 - alpha_j)`` over
``j <= k``), independently of the streaming bookkeeping of the engine's
kernel, and hold whichever point the kernel certifies with.  Each replay
raises :class:`StateError` on the trace of another driver.  A mirror-descent
trace replays as a conditional-subgradient trace of the dual spec.  From
uncached oracle calls at each recorded iterate x_k, the replay evaluates
A x_k, h(x_k), u_k = f'(A x_k) (hybrid records u_k), A* u_k and the target
s_k; x_{k+1} is the step's end point once it is (1 - alpha_k) x_k +
alpha_k s_k to a few ulps, and a :class:`StateError` names the row where it
is not.  The kernel (one cached segment per step) shares none of this code,
so a replay checks the kernel's arithmetic rather than repeating it.  Every
oracle value it reads is a checked call: an oracle that raises or returns
NaN raises :class:`DomainError`, and one that returns +inf at a recorded
point raises :class:`InfiniteValue`, each naming the user's oracle, on the
dual spec too, as ``dualize`` records it.
"""

from __future__ import annotations

import math

import numpy as np

from .oracles import (InfiniteValue, ProblemSpec, StateError, _oracle_name, _oracle_point,
                      _oracle_value, bregman_f, dualize)

__all__ = [
    "weight_rows",
    "step_divergence_primal",
    "cg_identity_residuals",
    "md_identity_residuals",
    "hybrid_identity_residuals",
]


def weight_rows(alphas) -> tuple:
    """Final (lambda, mu) rows for a recorded step-size sequence.

    mu_i is the product of (1 - alpha_j) over j > i, and lambda_i = alpha_i * mu_i.
    """
    a = np.asarray(alphas, dtype=float)
    mu = np.ones(a.shape[0])
    # one running product from the last step back (cumprod is sequential)
    mu[:-1] = np.cumprod(1.0 - a[:0:-1])[::-1]
    return a * mu, mu


# ---------------------------------------------------------------------------
# step divergences (certificate increments in sharpened form)
# ---------------------------------------------------------------------------

def _guarded(spec: ProblemSpec, coeff: float, value: float, where: str) -> float:
    # coeff * h(point) with explicit inf handling: a zero coefficient drops the
    # term before the value is used, so 0 * inf never occurs
    if coeff == 0.0:
        return 0.0
    if math.isinf(value):
        raise InfiniteValue(f"oracle {_oracle_name(spec, 'h_val')} returned +inf at the "
                            f"{where} point of a step")
    return coeff * value


def _divergence(spec: ProblemSpec, y, h, y_end, h_end: float, target, alpha: float) -> float:
    # step_divergence_primal toward target from a point of image y and h value h, read at
    # the end point of the step (image y_end, finite h value h_end)
    value = bregman_f(y_end, y, spec) + h_end
    value -= _guarded(spec, 1.0 - alpha, h, "base")
    value -= _guarded(spec, alpha, _oracle_value(spec, "h_val", target), "target")
    return value


def step_divergence_primal(x: np.ndarray, s: np.ndarray, alpha: float, spec: ProblemSpec) -> float:
    """One-step certificate increment on the primal side.

    Bregman distance of f(A .) across the step from x toward s, plus the
    Jensen slack of h at the same interpolation.  Never exceeds the Bregman
    term alone (convexity of h), which is what makes the sharpened gap
    recursion at least as tight as the plain one.  On ``dualize(spec)``,
    from v toward -z, it is the dual side's increment: D_{h*} along A* plus
    the Jensen slack of w -> f*(-w).
    """
    A = spec.linmap.apply
    comb = (1.0 - alpha) * x + alpha * s
    h_comb = _guarded(spec, 1.0, _oracle_value(spec, "h_val", comb), "interpolated")
    return _divergence(spec, A(x), _oracle_value(spec, "h_val", x), A(comb), h_comb, s, alpha)


# ---------------------------------------------------------------------------
# exact identity residuals (recomputed from a finished trace)
# ---------------------------------------------------------------------------

_RESCALE = 300.0  # a block keeps C_k / C_b >= e^-300; one step keeps >= 2^-53 > e^-300


def _decayed_sums(alphas, *terms) -> np.ndarray:
    # entry k of each row: sum_{i<=k} (C_k / C_i) terms_i, the mu-weighted sum of step k, as
    # C_k times a prefix sum of terms_i / C_i.  An alpha = 1 zeroes the carried sum and
    # starts a block; the log-product -log C_k places the other block ends, where the
    # carried sum is rescaled.  C is a running product within a block, because a long
    # sum of logs would lose |log C| eps per step.
    a = np.asarray(alphas, dtype=float)
    if len(a) == 0 or a[0] != 1.0 or not ((0.0 <= a) & (a <= 1.0)).all():
        raise StateError("identity residuals require alpha_0 = 1 and every alpha in [0, 1]")
    terms = np.stack(terms, axis=1)
    fresh = a == 1.0
    keep = np.where(fresh, 1.0, 1.0 - a)
    drop = -np.cumsum(np.log1p(np.where(fresh, 0.0, -a)))
    restarts = np.flatnonzero(fresh)
    out = np.empty_like(terms)
    b = 0
    while b < len(a):
        r = restarts.searchsorted(b, "right")
        end = min(restarts[r] if r < len(restarts) else len(a),
                  drop.searchsorted((drop[b - 1] if b else 0.0) + _RESCALE, "right"))
        c = np.cumprod(keep[b:end])[:, None]
        carry = 0.0 if fresh[b] else out[b - 1]
        out[b:end] = c * (carry + np.cumsum(terms[b:end] / c, axis=0))
        b = end
    return out.T


def _relative(avg, div, current) -> np.ndarray:
    # relative residual of  avg - div + current = 0  at every k >= 1
    return np.abs(avg - div + current) / (1.0 + np.abs(avg) + np.abs(div) + np.abs(current))


def _require_algo(trace, algo: str, replay: str):
    # another driver's histories are missing or stand in another identity
    if trace.algo != algo:
        raise StateError(f"{replay} needs a {algo} trace, got {trace.algo!r}")


def _recorded(spec: ProblemSpec, role: str, point) -> float:
    # an oracle's value at a recorded iterate or its oracle output; +inf raises InfiniteValue
    return _oracle_value(spec, role, point, at="a recorded iterate")


def _step(spec: ProblemSpec, k: int, base, y, h, target, alpha: float, end):
    # step k from base (image y, h value h) toward target; once ``end`` is that step to a few
    # ulps (the method, not the kernel's arithmetic): its image, h value and the increment
    comb = (1.0 - alpha) * base + alpha * target
    if (end != comb).any():  # bit for bit is the usual case, and needs no tolerance
        defect = np.abs(end - comb)
        if not (defect <= 4.0 * np.finfo(float).eps * (np.abs(base) + np.abs(target))).all():
            raise StateError(f"row {k + 1}: the recorded iterate is not the step from the one "
                             f"before toward its oracle target (defect {float(defect.max()):.3e})")
    y_end, h_end = spec.linmap.apply(end), _recorded(spec, "h_val", end)
    return y_end, h_end, _divergence(spec, y, h, y_end, h_end, target, alpha)


def _cg_residuals(xs, alphas, spec: ProblemSpec) -> np.ndarray:
    A, At = spec.linmap.apply, spec.linmap.adjoint
    # h(x_0) enters with the weight 1 - alpha_0 = 0 alone, so it may be +inf
    x, y, h = xs[0], A(xs[0]), _oracle_value(spec, "h_val", xs[0])
    dv, div, primal = [], [], []
    for k, (a, end) in enumerate(zip(alphas, xs[1:])):
        u = _oracle_point(spec, "f_grad", y)
        w = -At(u)
        dv.append(_recorded(spec, "f_conj_val", u) + _recorded(spec, "h_conj_val", w))
        y_end, h_end, d = _step(spec, k, x, y, h, _oracle_point(spec, "h_conj_grad", w), a, end)
        div.append(d)
        primal.append(_recorded(spec, "f_val", y_end) + h_end)
        x, y, h = end, y_end, h_end
    avg, weighted = _decayed_sums(alphas, np.multiply(alphas, dv), np.array(div))
    return _relative(avg, weighted, np.array(primal))


def cg_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the primal-run identity for every k >= 1.

    The identity: the lambda-average of dual objective values minus the
    mu-weighted step divergences equals minus the primal value at x_k.
    """
    _require_algo(trace, "gcs", "cg_identity_residuals")
    return _cg_residuals(trace.xs, trace.alphas, spec)


def md_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the dual-run identity for every k >= 1.

    The primal-run identity of ``dualize(spec)``, whose iterates x' are the
    v_k, read through the map (x', u', s') = (v, y, -z).
    """
    _require_algo(trace, "gmd", "md_identity_residuals")
    return _cg_residuals(trace.vs, trace.alphas, dualize(spec))


def hybrid_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the symmetric-run gap identity for every k >= 1.

    Here the certificate is exact: the duality gap at (x_k, u_k) equals the
    mu-weighted sum of primal plus dual step divergences.  The dual side is
    the primal side of ``dualize(spec)`` from -u_k toward -z_k.
    """
    _require_algo(trace, "hybrid", "hybrid_identity_residuals")
    A, dual = spec.linmap.apply, dualize(spec)
    # the dual side moves v = -u; h(x_0) and its h(v_0) = f*(u_0) weigh 1 - alpha_0 = 0
    x, v = trace.xs[0], -trace.us[0]
    y, h = A(x), _oracle_value(spec, "h_val", x)
    w, g = dual.linmap.apply(v), _oracle_value(dual, "h_val", v)
    div, gap = [], []
    for k, (a, x_end, u_end) in enumerate(zip(trace.alphas, trace.xs[1:], trace.us[1:])):
        s, z = _oracle_point(spec, "h_conj_grad", w), _oracle_point(spec, "f_grad", y)
        v_end = -u_end
        y_end, h_end, d = _step(spec, k, x, y, h, s, a, x_end)
        w_end, g_end, d_dual = _step(dual, k, v, w, g, -z, a, v_end)
        gap.append(_recorded(spec, "f_val", y_end) + h_end + g_end
                   + _recorded(dual, "f_val", w_end))
        div.append(d + d_dual)
        x, y, h, v, w, g = x_end, y_end, h_end, v_end, w_end, g_end
    (weighted,) = _decayed_sums(trace.alphas, np.array(div))
    return _relative(np.array(gap), weighted, 0.0)
