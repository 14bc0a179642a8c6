"""Empirical curvature probes and convergence-rate fits.

The convergence theory is driven by the smallest constant C with

    D(alpha) <= C * alpha^gamma / gamma      for all probed step lines,

where D is the Bregman distance of the smooth part along a segment from a
feasible point toward a conjugate-subgradient output.  ``probe_curvature``
estimates C from random probes (a lower bound on the true constant, reported
as such), ``curvature_along_trace`` restricts the sup to the step lines a
finished run actually used, and ``fit_rate`` reads the empirical decay
exponent off a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracles import (
    DomainError,
    FitError,
    InfiniteValue,
    ProblemSpec,
    RangeError,
    bregman_f,
    dualize,
)

__all__ = ["CurvatureEstimate", "probe_curvature", "curvature_along_trace", "fit_rate"]

_SCALES = (0.1, 1.0, 10.0)
_K_MIN = 10  # first k of the rate fit


@dataclass
class CurvatureEstimate:
    """Sampled lower estimate of a relative curvature constant."""

    gamma: float
    c_hat: float
    samples: int
    witness: Optional[dict] = None
    skipped: int = 0


# log grid: the ratio D(alpha)/alpha^gamma discriminates most at small alpha
_ALPHAS = np.geomspace(1e-3, 1.0, 64)


def _check_exponent(gamma: float) -> None:
    if not gamma > 1.0:
        raise RangeError(f"curvature exponent must exceed 1, got {gamma}")
    # every ratio divides by alpha^gamma, smallest at the grid's smallest alpha
    if not _ALPHAS[0] ** gamma > 0.0:
        raise RangeError(f"curvature exponent {gamma} has no finite estimate: "
                         f"alpha^gamma underflows to 0 at alpha = {_ALPHAS[0]}")


# the ratios divide by float(a ** gamma): in Python floats an overflow is inf,
# with no numpy warning, and this check turns it into a RangeError
def _finite(c: float, gamma: float) -> float:
    if not math.isfinite(c):
        raise RangeError(f"curvature estimate for exponent {gamma} is not finite")
    return c


def probe_curvature(spec: ProblemSpec, gamma: float, n_samples: int = 200,
                    seed: int = 0) -> CurvatureEstimate:
    """Estimate the curvature constant of the smooth part relative to the
    nonsmooth part by random (point, covector) probes.

    Covectors are spherical at three magnitudes, base points come from the
    problem's sampler.  The estimate is a max over samples, hence monotone
    nondecreasing in ``n_samples`` for a fixed seed, and is a lower bound on
    the true constant.
    """
    _check_exponent(gamma)
    rng = np.random.default_rng(seed)
    A = spec.linmap.apply
    c_hat = 0.0
    witness = None
    skipped = 0
    for i in range(n_samples):
        if spec.sample_x is not None:
            x = spec.sample_x(rng)
        else:
            x = rng.standard_normal(spec.dim_x)
        v = rng.standard_normal(spec.dim_x) * _SCALES[i % len(_SCALES)]
        try:
            s = np.asarray(spec.h_conj_grad(v), dtype=float)
        except Exception:  # noqa: BLE001 - probe outside dom((h*)') is skippable
            skipped += 1
            continue
        for a in _ALPHAS:
            try:
                d = bregman_f(A((1.0 - a) * x + a * s), A(x), spec)
            except (InfiniteValue, DomainError):
                skipped += 1
                break
            ratio = gamma * d / float(a ** gamma)
            if ratio > c_hat:
                c_hat = ratio
                witness = {"x": x.copy(), "v": v.copy(), "alpha": float(a)}
    return CurvatureEstimate(gamma=float(gamma), c_hat=_finite(float(c_hat), gamma),
                             samples=n_samples, witness=witness, skipped=skipped)


def curvature_along_trace(trace, spec: ProblemSpec, gamma: float):
    """Smallest constants making the curvature inequality hold on the step
    lines of a finished run.

    Returns a float for single-sided runs ('gcs': primal side, 'gmd': dual
    side) and a (primal, dual) pair for 'hybrid'.  A bound computed with these
    constants is guaranteed for that same run, which is how rate statements
    are checked on problems whose global constant is unbounded.  The dual
    side is the primal side of ``dualize(spec)``.
    """
    _check_exponent(gamma)

    def sup(pairs, side):
        A = side.linmap.apply
        c = 0.0
        for x, s in pairs:
            for a in _ALPHAS:
                d = bregman_f(A((1.0 - a) * x + a * s), A(x), side)
                c = max(c, gamma * d / float(a ** gamma))
        return _finite(c, gamma)

    if trace.algo == "gcs":
        return sup(zip(trace.xs[:-1], trace.ss), spec)
    if trace.algo == "gmd":
        return sup(((v, -z) for v, z in zip(trace.vs[:-1], trace.zs)), dualize(spec))
    if trace.algo == "hybrid":
        cp = sup(zip(trace.xs[:-1], trace.ss), spec)
        cd = sup(((-u, -z) for u, z in zip(trace.us[:-1], trace.zs)), dualize(spec))
        return cp, cd
    raise RangeError(f"unknown trace algo {trace.algo!r}")


def fit_rate(trace_or_gaps):
    """Least-squares slope of log(gap) against log(k) over k >= 10.

    Accepts a trace (its certified gap-bound column is used) or a bare gap
    array indexed from k = 1.  Returns ``(exponent, r_squared)``; raises
    :class:`FitError` with fewer than 10 usable points.
    """
    gaps = getattr(trace_or_gaps, "gap_bound", trace_or_gaps)
    gaps = np.asarray(gaps, dtype=float)
    k = np.arange(1, gaps.shape[0] + 1)
    mask = (k >= _K_MIN) & (gaps > 0.0) & np.isfinite(gaps)
    if int(np.sum(mask)) < 10:
        raise FitError(f"only {int(np.sum(mask))} usable points for the rate fit (need 10)")
    lx = np.log(k[mask].astype(float))
    ly = np.log(gaps[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(slope), float(r2)
