"""Empirical curvature probes and convergence-rate fits.

The convergence theory is driven by the smallest constant C with

    D(alpha) <= C * alpha^gamma / gamma      for all probed step lines,

where D is the Bregman distance of the smooth part along a segment from a
feasible point toward a conjugate-subgradient output.  ``probe_curvature``
estimates C from random probes (a lower bound on the true constant, reported
as such), ``curvature_along_trace`` restricts the sup to the step lines of a
finished run, read off its steps' own oracle outputs, and ``fit_rate`` reads
the empirical decay exponent off a trace.  A probe whose oracle raises or
returns a non-finite value counts as skipped; along a trace, it raises.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import _require_history
from .oracles import (
    FenchelDuoError,
    FitError,
    ProblemSpec,
    RangeError,
    _bregman,
    _oracle_point,
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


def _ratios(spec: ProblemSpec, x, s, gamma: float, y0=None, g0=None):
    # (a, gamma D(a) / a^gamma) along the line from x toward s for each a of the grid, with
    # A(x) = y0 and f' = g0 there given or read once, f at the first a; an oracle error ends it
    y0, f0 = spec.linmap.apply(x) if y0 is None else y0, None
    for a in _ALPHAS:
        d, _, f0, g0 = _bregman(spec, spec.linmap.apply((1.0 - a) * x + a * s), y0, f0, g0)
        yield a, gamma * d / float(a ** gamma)


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
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise RangeError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise RangeError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    c_hat = 0.0
    witness = None
    skipped = 0
    for i in range(n_samples):
        if spec.sample_x is not None:
            x = spec.sample_x(rng)
        else:
            x = rng.standard_normal(spec.dim_x)
        v = rng.standard_normal(spec.dim_x) * _SCALES[i % len(_SCALES)]
        try:  # a probe outside dom((h*)') is skipped; ratios before a failing alpha count
            s = _oracle_point(spec, "h_conj_grad", v)
            for a, ratio in _ratios(spec, x, s, gamma):
                if ratio > c_hat:
                    c_hat = ratio
                    witness = {"x": x.copy(), "v": v.copy(), "alpha": float(a)}
        except FenchelDuoError:
            skipped += 1
    return CurvatureEstimate(gamma=float(gamma), c_hat=_finite(float(c_hat), gamma),
                             samples=n_samples, witness=witness, skipped=skipped)


def curvature_along_trace(trace, spec: ProblemSpec, gamma: float):
    """Smallest constants making the curvature inequality hold on the step
    lines of a finished run.

    Returns a float for single-sided runs ('gcs': primal side, 'gmd': dual
    side) and a (primal, dual) pair for 'hybrid'.  A bound computed with these
    constants is guaranteed for that same run, which is how rate statements
    are checked on problems whose global constant is unbounded.  The dual
    side is the primal side of ``dualize(spec)``.  A step reads y = A x,
    z = f'(y), u (z, or hybrid's recorded u), w = -A* u and s = (h*)'(w) once;
    its line runs from x toward s, and hybrid's dual line from -u toward -z.
    A trace run with ``history=False`` has no step lines: it raises
    :class:`StateError`.
    """
    _check_exponent(gamma)
    if trace.algo not in ("gcs", "gmd", "hybrid"):
        raise RangeError(f"unknown trace algo {trace.algo!r}")
    _require_history(trace, "curvature_along_trace")
    hybrid, dual = trace.algo == "hybrid", dualize(spec)
    side, xs = (dual, trace.vs) if trace.algo == "gmd" else (spec, trace.xs)
    c = c_dual = 0.0
    for k, x in enumerate(xs[:-1]):
        y = side.linmap.apply(x)
        z = _oracle_point(side, "f_grad", y)
        u = trace.us[k] if hybrid else z
        w = -side.linmap.adjoint(u)
        s = _oracle_point(side, "h_conj_grad", w)
        for _, ratio in _ratios(side, x, s, gamma, y, z):
            c = max(c, ratio)
        if hybrid:
            for _, ratio in _ratios(dual, -u, -z, gamma, w, s):
                c_dual = max(c_dual, ratio)
    return (_finite(c, gamma), _finite(c_dual, gamma)) if hybrid else _finite(c, gamma)


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
