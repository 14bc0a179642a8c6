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
exact algebraic identities the certificates are built on; they rebuild the
weight rows from the recorded step sizes, independently of the streaming
bookkeeping of the engine's kernel, which also keeps the running certificate
(the lambda-weighted average or the best point seen).  A mirror-descent
trace replays as a conditional-subgradient trace of the dual spec.
"""

from __future__ import annotations

import math

import numpy as np

from .oracles import InfiniteValue, ProblemSpec, StateError, _oracle_value, bregman_f, dualize

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

def _guarded(coeff: float, spec: ProblemSpec, point, where: str) -> float:
    # coeff * h(point) with explicit inf handling: a zero coefficient drops the
    # term before the value is used, so 0 * inf never occurs
    value = _oracle_value(spec.h_val, point, "h_val")
    if coeff == 0.0:
        return 0.0
    if math.isinf(value):
        raise InfiniteValue(f"oracle h_val returned +inf at the {where} point of a step")
    return coeff * value


def _step_increment(base, target, alpha: float, spec: ProblemSpec, sharp: bool = True):
    """Certificate increment of a step from ``base`` toward ``target``.

    The Bregman term D = D_f(A comb, A base) of ``spec`` at the interpolated
    point comb, alone, or with ``sharp`` the pair (D, sharpened value) where
    the sharpened value adds the Jensen slack of h at the same interpolation.
    D is evaluated once for both.
    """
    A = spec.linmap.apply
    comb = (1.0 - alpha) * base + alpha * target
    d = bregman_f(A(comb), A(base), spec)
    if not sharp:
        return d
    value = d + _guarded(1.0, spec, comb, "interpolated")
    value -= _guarded(1.0 - alpha, spec, base, "base")
    value -= _guarded(alpha, spec, target, "target")
    return d, value


def step_divergence_primal(x: np.ndarray, s: np.ndarray, alpha: float, spec: ProblemSpec) -> float:
    """One-step certificate increment on the primal side.

    Bregman distance of f(A .) across the step from x toward s, plus the
    Jensen slack of h at the same interpolation.  Never exceeds the Bregman
    term alone (convexity of h), which is what makes the sharpened gap
    recursion at least as tight as the plain one.  On ``dualize(spec)``,
    from v toward -z, it is the dual side's increment: D_{h*} along A* plus
    the Jensen slack of w -> f*(-w).
    """
    return _step_increment(x, s, alpha, spec)[1]


# ---------------------------------------------------------------------------
# exact identity residuals (recomputed from a finished trace)
# ---------------------------------------------------------------------------

def _residuals(alphas, terms) -> np.ndarray:
    # relative residual of  avg - div + current = 0  at every k >= 1, where
    # terms(k, lam, mu) gives the three terms under the weight rows of step k
    if len(alphas) == 0 or alphas[0] != 1.0:
        raise StateError("identity residuals require alpha_0 = 1")
    out = np.empty(len(alphas))
    for k in range(1, len(alphas) + 1):
        lam, mu = weight_rows(alphas[:k])
        avg, div, current = terms(k, lam, mu)
        out[k - 1] = abs(avg - div + current) / (1.0 + abs(avg) + abs(div) + abs(current))
    return out


def _cg_residuals(xs, us, ss, alphas, spec: ProblemSpec) -> np.ndarray:
    A, At = spec.linmap.apply, spec.linmap.adjoint
    dv = np.array([
        float(spec.f_conj_val(u)) + float(spec.h_conj_val(-At(u))) for u in us
    ])
    div = np.array([
        step_divergence_primal(x, s, a, spec) for x, s, a in zip(xs[:-1], ss, alphas)
    ])
    primal = np.array([
        float(spec.f_val(A(x))) + float(spec.h_val(x)) for x in xs[1:]
    ])
    return _residuals(alphas, lambda k, lam, mu: (
        float(lam @ dv[:k]), float(mu @ div[:k]), float(primal[k - 1])))


def cg_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the primal-run identity for every k >= 1.

    The identity: the lambda-average of dual objective values minus the
    mu-weighted step divergences equals minus the primal value at x_k.
    """
    return _cg_residuals(trace.xs, trace.us, trace.ss, trace.alphas, spec)


def md_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the dual-run identity for every k >= 1.

    The primal-run identity of ``dualize(spec)``, read through the map
    (x, u, s) = (v, y, -z).
    """
    return _cg_residuals(trace.vs, trace.ys, (-z for z in trace.zs), trace.alphas,
                         dualize(spec))


def hybrid_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the symmetric-run gap identity for every k >= 1.

    Here the certificate is exact: the duality gap at (x_k, u_k) equals the
    mu-weighted sum of primal plus dual step divergences.
    """
    A, At = spec.linmap.apply, spec.linmap.adjoint
    dual = dualize(spec)
    div = np.array([
        step_divergence_primal(x, s, a, spec) + step_divergence_primal(-u, -z, a, dual)
        for x, u, s, z, a in zip(trace.xs[:-1], trace.us[:-1], trace.ss, trace.zs,
                                 trace.alphas)
    ])
    gap = np.array([
        float(spec.f_val(A(x))) + float(spec.h_val(x))
        + float(spec.f_conj_val(u)) + float(spec.h_conj_val(-At(u)))
        for x, u in zip(trace.xs[1:], trace.us[1:])
    ])
    return _residuals(trace.alphas, lambda k, lam, mu: (
        float(gap[k - 1]), float(mu @ div[:k]), 0.0))
