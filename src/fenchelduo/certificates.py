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
per-step terms by the recorded step sizes through the weights' own
recursion (every sum the identities need is ``s_k = (1 - alpha_k) s_{k-1} +
t_k``, as ``mu^k_i = (1 - alpha_k) mu^{k-1}_i`` and the new term weighs 1),
independently of the streaming bookkeeping of the engine's kernel, and hold
whichever point the kernel certifies with.  Each replay raises
:class:`StateError` on the trace of another driver, or on one run with
``history=False``, which keeps no iterates.  A mirror-descent trace
replays as a conditional-subgradient trace of the dual spec.  From uncached
oracle calls at each recorded iterate x_k, the replay evaluates A x_k, h(x_k),
u_k = f'(A x_k) (hybrid records u_k), A* u_k and the target s_k; u_k is f' at
the base of step k, and f(A x_k), read once, is carried from row to row.
x_{k+1} is the step's end point once it is (1 - alpha_k) x_k + alpha_k s_k to
a few ulps, and a :class:`StateError` names the row where it is not.  The
kernel (one cached segment per step) shares none of this code, so a replay
checks the kernel's arithmetic rather than repeating it.  Every oracle value
it reads is a checked call: an oracle that raises or returns NaN raises
:class:`DomainError`, and one that returns +inf at a recorded point raises
:class:`InfiniteValue`, each naming the user's oracle, on the dual spec too,
as ``dualize`` records it.
"""

from __future__ import annotations

import math

import numpy as np

from .oracles import (InfiniteValue, ProblemSpec, StateError, _bregman, _oracle_name,
                      _oracle_point, _oracle_value, bregman_f, dualize)

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


def _divergence(spec: ProblemSpec, d: float, h, h_end: float, target, alpha: float) -> float:
    # step_divergence_primal toward target from a point of h value h, read at the end point
    # of the step (finite h value h_end), from the Bregman term d across the step
    value = d + h_end
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
    h = _oracle_value(spec, "h_val", x)
    return _divergence(spec, bregman_f(A(comb), A(x), spec), h, h_comb, s, alpha)


# ---------------------------------------------------------------------------
# exact identity residuals (recomputed from a finished trace)
# ---------------------------------------------------------------------------

def _decayed_sums(alphas, *terms) -> np.ndarray:
    # entry k of each row: the mu-weighted sum of step k, s_k = (1 - alpha_k) s_{k-1} + t_k
    a = np.asarray(alphas, dtype=float)
    if len(a) == 0 or a[0] != 1.0 or not ((0.0 <= a) & (a <= 1.0)).all():
        raise StateError("identity residuals require alpha_0 = 1 and every alpha in [0, 1]")
    out, keeps = np.array(terms, dtype=float), 1.0 - a
    for row in out:
        s = 0.0
        for k, keep in enumerate(keeps):
            s = row[k] = keep * s + row[k]
    return out


def _relative(avg, div, current) -> np.ndarray:
    # relative residual of  avg - div + current = 0  at every k >= 1
    return np.abs(avg - div + current) / (1.0 + np.abs(avg) + np.abs(div) + np.abs(current))


# the iterate histories a driver's trace keeps, as Trace lists them
_HISTORIES = {"gcs": ("xs",), "gmd": ("vs",), "hybrid": ("xs", "us")}


def _require_history(trace, reader: str):
    # a run with history=False keeps no iterates, and a replay has no rows without them
    missing = [name for name in _HISTORIES[trace.algo] if not getattr(trace, name)]
    if missing:
        raise StateError(f"{reader} needs the iterate history ({', '.join(missing)}) of the "
                         f"{trace.algo} trace, which has none: run it with history=True")


def _require_algo(trace, algo: str, replay: str):
    # another driver's histories are missing or stand in another identity
    if trace.algo != algo:
        raise StateError(f"{replay} needs a {algo} trace, got {trace.algo!r}")
    _require_history(trace, replay)


def _recorded(spec: ProblemSpec, role: str, point) -> float:
    # an oracle's value at a recorded iterate or its oracle output; +inf raises InfiniteValue
    return _oracle_value(spec, role, point, at="a recorded iterate")


def _step(spec: ProblemSpec, k: int, base, y, f, g, h, target, alpha: float, end):
    # step k from base (image y, f(y) = f or None, f'(y) = g, h value h) toward target; once
    # ``end`` is that step to a few ulps (the method, not the kernel's arithmetic): its image,
    # f value (None after a closed form), h value and the increment
    comb = (1.0 - alpha) * base + alpha * target
    if (end != comb).any():  # bit for bit is the usual case, and needs no tolerance
        defect = np.abs(end - comb)
        if not (defect <= 4.0 * np.finfo(float).eps * (np.abs(base) + np.abs(target))).all():
            raise StateError(f"row {k + 1}: the recorded iterate is not the step from the one "
                             f"before toward its oracle target (defect {float(defect.max()):.3e})")
    y_end, h_end = spec.linmap.apply(end), _recorded(spec, "h_val", end)
    d, f_end, _, _ = _bregman(spec, y_end, y, f, g)
    return y_end, f_end, h_end, _divergence(spec, d, h, h_end, target, alpha)


def _value(spec: ProblemSpec, f_end, y_end) -> float:
    # f at a step's end point: the value its Bregman term read, or a call after a closed form
    return _recorded(spec, "f_val", y_end) if f_end is None else f_end


def _cg_residuals(xs, alphas, spec: ProblemSpec) -> np.ndarray:
    A, At = spec.linmap.apply, spec.linmap.adjoint
    # h(x_0) enters with the weight 1 - alpha_0 = 0 alone, so it may be +inf
    x, y, f, h = xs[0], A(xs[0]), None, _oracle_value(spec, "h_val", xs[0])
    dv, div, primal = [], [], []
    for k, (a, end) in enumerate(zip(alphas, xs[1:])):
        u = _oracle_point(spec, "f_grad", y)
        w = -At(u)
        dv.append(_recorded(spec, "f_conj_val", u) + _recorded(spec, "h_conj_val", w))
        s = _oracle_point(spec, "h_conj_grad", w)
        y_end, f_end, h_end, d = _step(spec, k, x, y, f, u, h, s, a, end)
        div.append(d)
        f_end = _value(spec, f_end, y_end)
        primal.append(f_end + h_end)
        x, y, f, h = end, y_end, f_end, h_end
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
    # the dual side moves v = -u, with f value e = h*(w); h(x_0) and h(v_0) = f*(u_0) weigh 0
    x, v = trace.xs[0], -trace.us[0]
    y, f, h = A(x), None, _oracle_value(spec, "h_val", x)
    w, e, g = dual.linmap.apply(v), None, _oracle_value(dual, "h_val", v)
    div, gap = [], []
    for k, (a, x_end, u_end) in enumerate(zip(trace.alphas, trace.xs[1:], trace.us[1:])):
        s, z = _oracle_point(spec, "h_conj_grad", w), _oracle_point(spec, "f_grad", y)
        v_end = -u_end
        y_end, f_end, h_end, d = _step(spec, k, x, y, f, z, h, s, a, x_end)
        w_end, e_end, g_end, d_dual = _step(dual, k, v, w, e, s, g, -z, a, v_end)
        f_end, e_end = _value(spec, f_end, y_end), _value(dual, e_end, w_end)
        gap.append(f_end + h_end + g_end + e_end)
        div.append(d + d_dual)
        x, y, f, h, v, w, e, g = x_end, y_end, f_end, h_end, v_end, w_end, e_end, g_end
    (weighted,) = _decayed_sums(trace.alphas, np.array(div))
    return _relative(np.array(gap), weighted, 0.0)
