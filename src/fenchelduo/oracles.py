"""Oracle contracts for the composite problem  min_x  f(Ax) + h(x).

Everything downstream runs on five callables bundled in a :class:`ProblemSpec`:
values and conjugate values of ``f`` and ``h``, one subgradient selection for
``f``, one conjugate-subgradient selection for ``h`` (the linear minimization
oracle when ``h`` is an indicator), and a :class:`LinearMap` for ``A``.

Conventions
-----------
* Points are 1-D ``float64`` numpy arrays; ``f``-side points live in R^m,
  ``h``-side points in R^n, dual points in the same coordinates.
* ``+inf`` (``math.inf``) is the "outside the domain" value; arithmetic with
  it is always guarded explicitly, never left to float semantics.  No oracle
  value is ever ``-inf``.
* Subgradient oracles return a single selection.  Argmax-style oracles break
  ties deterministically (lowest index) so that runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "FenchelDuoError",
    "ConstructionError",
    "DomainError",
    "InfiniteValue",
    "RangeError",
    "StateError",
    "FitError",
    "as_point",
    "LinearMap",
    "ProblemSpec",
    "bregman_f",
    "dualize",
]

INF = math.inf

# Tiny negative Bregman values produced by cancellation are snapped to zero.
_NEG_SNAP = 1e-12


class FenchelDuoError(Exception):
    """Base class for all library errors."""


class ConstructionError(FenchelDuoError):
    """A problem constructor received invalid data."""


class DomainError(FenchelDuoError):
    """An oracle was queried outside its domain or returned non-finite output."""


class InfiniteValue(FenchelDuoError):
    """A value that must be finite evaluated to +inf."""


class RangeError(FenchelDuoError):
    """A scalar parameter is outside its admissible range."""


class StateError(FenchelDuoError):
    """An operation was called in an invalid state (e.g. before initialization)."""


class FitError(FenchelDuoError):
    """Not enough usable data to fit a convergence rate."""


def as_point(x, dim: Optional[int] = None, name: str = "point") -> np.ndarray:
    """Validate and return ``x`` as a finite 1-D float64 array."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise DomainError(f"{name} must be 1-D, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DomainError(f"{name} has dimension {p.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{name} has non-finite coordinates")
    return p


@dataclass(frozen=True)
class LinearMap:
    """Linear map A: R^dim_in -> R^dim_out together with its adjoint."""

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dim_in: int
    dim_out: int
    matrix: Optional[np.ndarray] = None

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(apply=lambda x: x, adjoint=lambda u: u, dim_in=n, dim_out=n)

    @staticmethod
    def from_matrix(m) -> "LinearMap":
        mat = np.asarray(m, dtype=float)
        if mat.ndim != 2:
            raise ConstructionError(f"matrix for a linear map must be 2-D, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ConstructionError("matrix for a linear map has non-finite entries")
        return LinearMap(
            apply=lambda x: mat @ x,
            adjoint=lambda u: mat.T @ u,
            dim_in=mat.shape[1],
            dim_out=mat.shape[0],
            matrix=mat,
        )


@dataclass(frozen=True)
class ProblemSpec:
    """Oracle bundle for  min_x f(Ax) + h(x)  with A: R^n -> R^m.

    Required oracles:
      f_val(y) -> float|inf          value of f on R^m
      f_grad(y) -> point             one subgradient of f (argmax selection)
      f_conj_val(u) -> float|inf     f*(u) on R^m
      h_val(x) -> float|inf          value of h on R^n
      h_conj_val(w) -> float|inf     h*(w) on R^n
      h_conj_grad(w) -> point        one subgradient of h* (LMO for indicators)

    Optional closed-form Bregman distances avoid cancellation in the
    certificate arithmetic: breg_f(y2, y1) for D_f and breg_hconj(w2, w1)
    for D_{h*}.  :func:`dualize` swaps the two, so D_{h*} is computed as
    ``bregman_f`` of the dual spec.

    All oracles must be pure; a spec may be shared across concurrent runs.
    """

    f_val: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    f_conj_val: Callable[[np.ndarray], float]
    h_val: Callable[[np.ndarray], float]
    h_conj_val: Callable[[np.ndarray], float]
    h_conj_grad: Callable[[np.ndarray], np.ndarray]
    linmap: LinearMap
    breg_f: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    breg_hconj: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    name: str = ""
    sample_x: Optional[Callable[[np.random.Generator], np.ndarray]] = None

    @property
    def dim_x(self) -> int:
        return self.linmap.dim_in

    @property
    def dim_y(self) -> int:
        return self.linmap.dim_out


# dualize's wiring: the oracle of spec that each oracle of dualize(spec) calls
_DUAL_ROLES = {"f_val": "h_conj_val", "f_grad": "h_conj_grad", "f_conj_val": "h_val",
               "h_val": "f_conj_val", "h_conj_val": "f_val", "h_conj_grad": "f_grad",
               "breg_f": "breg_hconj", "breg_hconj": "breg_f"}


class _DualSpec(ProblemSpec):
    """Built by :func:`dualize`: its oracle r calls ``_DUAL_ROLES[r]`` of the spec dualized."""


def _oracle_name(spec: ProblemSpec, role: str) -> str:
    """The oracle of the user's spec that ``role`` of ``spec`` calls."""
    return _DUAL_ROLES[role] if isinstance(spec, _DualSpec) else role


def dualize(spec: ProblemSpec) -> ProblemSpec:
    """Problem spec of the Fenchel dual  min_v h*(A*v) + f*(-v).

    The smooth role is taken by h* (so the primal's conjugate-subgradient
    oracle becomes the new subgradient oracle) and the nonsmooth role by
    v -> f*(-v), whose conjugate-subgradient oracle is w -> -f'(-w).
    Closed-form Bregman distances are carried over with the matching sign
    flips.  Dualizing twice reproduces the primal oracles composed with
    negation on both sides.

    This is the one place that knows the primal-dual sign map: each
    dual-side quantity of the drivers, dual values too, is the primal-side
    function applied to the dual spec.  It is also the one place that knows
    which oracle of ``spec`` each oracle of the result calls: the result is
    a ``_DualSpec`` (plain when ``spec`` is one; ``dataclasses.replace``
    keeps the class), so every oracle error names the user's oracle, read
    off ``_oracle_name``.
    """
    for attr in ("f_conj_val", "h_conj_val", "h_conj_grad"):
        if getattr(spec, attr) is None:
            raise ConstructionError(f"dualization needs the {attr} oracle")
    lm = spec.linmap
    dual_map = LinearMap(
        apply=lm.adjoint,
        adjoint=lm.apply,
        dim_in=lm.dim_out,
        dim_out=lm.dim_in,
        matrix=None if lm.matrix is None else lm.matrix.T,
    )
    cls = ProblemSpec if isinstance(spec, _DualSpec) else _DualSpec
    return cls(
        f_val=spec.h_conj_val,
        f_grad=spec.h_conj_grad,
        f_conj_val=spec.h_val,
        h_val=lambda w: spec.f_conj_val(-np.asarray(w, dtype=float)),
        h_conj_val=lambda y: spec.f_val(-np.asarray(y, dtype=float)),
        h_conj_grad=lambda w: -np.asarray(spec.f_grad(-np.asarray(w, dtype=float)), dtype=float),
        linmap=dual_map,
        breg_f=spec.breg_hconj,
        breg_hconj=None if spec.breg_f is None else (lambda y2, y1: spec.breg_f(-y2, -y1)),
        name=f"dual({spec.name})" if spec.name else "dual",
        sample_x=None,
    )


def _oracle_point(spec: ProblemSpec, role: str, arg: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(getattr(spec, role)(arg), dtype=float)
    except FenchelDuoError:
        raise
    except Exception as exc:  # noqa: BLE001 - user oracles may raise anything
        raise DomainError(f"oracle {_oracle_name(spec, role)} failed: {exc}") from exc
    if out.shape != np.shape(arg):  # f' maps R^m, and (h*)' R^n, to itself
        raise DomainError(f"oracle {_oracle_name(spec, role)} returned shape {out.shape} "
                          f"for a point of shape {np.shape(arg)}")
    if not np.isfinite(out).all():
        raise DomainError(f"oracle {_oracle_name(spec, role)} returned non-finite output")
    return out


def _oracle_value(spec: ProblemSpec, role: str, *args, at: Optional[str] = None,
                  error=InfiniteValue) -> float:
    # with ``at``, +inf raises ``error``, naming where it was queried
    try:
        out = float(getattr(spec, role)(*args))
    except FenchelDuoError:
        raise
    except Exception as exc:  # noqa: BLE001
        raise DomainError(f"oracle {_oracle_name(spec, role)} failed: {exc}") from exc
    if math.isnan(out):
        raise DomainError(f"oracle {_oracle_name(spec, role)} returned NaN")
    if out == -INF:  # no proper convex function, conjugate or Bregman distance takes it
        raise DomainError(f"oracle {_oracle_name(spec, role)} returned -inf")
    if at is not None and out == INF:
        raise error(f"oracle {_oracle_name(spec, role)} returned +inf at {at}")
    return out


def _snap(value: float) -> float:
    if value < 0.0 and value > -_NEG_SNAP * (1.0 + abs(value)):
        return 0.0
    return value


def bregman_f(y: np.ndarray, x: np.ndarray, spec: ProblemSpec) -> float:
    """Bregman distance D_f(y, x) = f(y) - f(x) - <f'(x), y - x>.

    Uses the closed form from the spec when available, otherwise the value
    and subgradient oracles.  Raises :class:`InfiniteValue` when f(y) or the
    closed form is +inf, :class:`DomainError` when f(x) is, any value is
    -inf, an oracle fails, or the closed form is negative beyond what
    ``_snap`` takes for rounding.
    """
    if spec.breg_f is not None:
        d = _snap(_oracle_value(spec, "breg_f", y, x, at="the first Bregman argument"))
        if d < 0.0:
            raise DomainError(f"oracle {_oracle_name(spec, 'breg_f')} returned a negative "
                              f"Bregman distance {d!r}")
        return d
    return _bregman(spec, y, x)[0]


def _bregman(spec: ProblemSpec, y, x, fx=None, g=None):
    # bregman_f with f(x), f'(x) given or read after f(y): D, f(y) (None if closed), f(x), f'(x)
    if spec.breg_f is not None:
        return bregman_f(y, x, spec), None, fx, g
    fy = _oracle_value(spec, "f_val", y, at="the first Bregman argument")
    if fx is None:
        fx = _oracle_value(spec, "f_val", x, at="the Bregman base point", error=DomainError)
    g = _oracle_point(spec, "f_grad", x) if g is None else g
    return _snap(fy - fx - float(np.dot(g, y - x))), fy, fx, g
