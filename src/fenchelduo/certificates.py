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
trace replays as a conditional-subgradient trace of the dual spec.  The
replay evaluates each increment itself, from uncached oracle calls at both
ends of the step; the kernel (one cached segment per step) shares none of
this code, so a replay checks the kernel's arithmetic rather than repeating
it.  Every oracle value it reads is a checked call: an oracle that raises or
returns NaN raises :class:`DomainError`, and one that returns +inf at a
recorded point raises :class:`InfiniteValue`, each naming the user's oracle,
on the dual spec too, as ``dualize`` records it.
"""

from __future__ import annotations

import math

import numpy as np

from .oracles import (InfiniteValue, ProblemSpec, StateError, _oracle_name, _oracle_value,
                      bregman_f, dualize)

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
    value = _oracle_value(spec, "h_val", point)
    if coeff == 0.0:
        return 0.0
    if math.isinf(value):
        raise InfiniteValue(f"oracle {_oracle_name(spec, 'h_val')} returned +inf at the "
                            f"{where} point of a step")
    return coeff * value


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
    value = bregman_f(A(comb), A(x), spec)
    value += _guarded(1.0, spec, comb, "interpolated")
    value -= _guarded(1.0 - alpha, spec, x, "base")
    value -= _guarded(alpha, spec, s, "target")
    return value


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
    # an oracle's value at a recorded iterate; +inf raises InfiniteValue
    return _oracle_value(spec, role, point, at="a recorded iterate")


def _cg_residuals(xs, us, ss, alphas, spec: ProblemSpec) -> np.ndarray:
    A, At = spec.linmap.apply, spec.linmap.adjoint
    dv = np.array([
        _recorded(spec, "f_conj_val", u) + _recorded(spec, "h_conj_val", -At(u)) for u in us
    ])
    div = np.array([
        step_divergence_primal(x, s, a, spec) for x, s, a in zip(xs[:-1], ss, alphas)
    ])
    primal = np.array([
        _recorded(spec, "f_val", A(x)) + _recorded(spec, "h_val", x) for x in xs[1:]
    ])
    avg, weighted = _decayed_sums(alphas, np.multiply(alphas, dv), div)
    return _relative(avg, weighted, primal)


def cg_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the primal-run identity for every k >= 1.

    The identity: the lambda-average of dual objective values minus the
    mu-weighted step divergences equals minus the primal value at x_k.
    """
    _require_algo(trace, "gcs", "cg_identity_residuals")
    return _cg_residuals(trace.xs, trace.us, trace.ss, trace.alphas, spec)


def md_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the dual-run identity for every k >= 1.

    The primal-run identity of ``dualize(spec)``, read through the map
    (x, u, s) = (v, y, -z).
    """
    _require_algo(trace, "gmd", "md_identity_residuals")
    return _cg_residuals(trace.vs, trace.ys, (-z for z in trace.zs), trace.alphas,
                         dualize(spec))


def hybrid_identity_residuals(trace, spec: ProblemSpec) -> np.ndarray:
    """Relative residuals of the symmetric-run gap identity for every k >= 1.

    Here the certificate is exact: the duality gap at (x_k, u_k) equals the
    mu-weighted sum of primal plus dual step divergences.
    """
    _require_algo(trace, "hybrid", "hybrid_identity_residuals")
    A, At = spec.linmap.apply, spec.linmap.adjoint
    dual = dualize(spec)
    div = np.array([
        step_divergence_primal(x, s, a, spec)
        + step_divergence_primal(-u, -z, a, dual)
        for x, u, s, z, a in zip(trace.xs[:-1], trace.us[:-1], trace.ss, trace.zs,
                                 trace.alphas)
    ])
    gap = np.array([
        _recorded(spec, "f_val", A(x)) + _recorded(spec, "h_val", x)
        + _recorded(spec, "f_conj_val", u) + _recorded(spec, "h_conj_val", -At(u))
        for x, u in zip(trace.xs[1:], trace.us[1:])
    ])
    (weighted,) = _decayed_sums(trace.alphas, div)
    return _relative(gap, weighted, 0.0)
