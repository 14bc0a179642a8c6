"""Ready-made problem specs: quadratics and power objectives over simple sets,
and the entropy geometry whose conjugate is log-sum-exp.

Each constructor returns a :class:`~fenchelduo.oracles.ProblemSpec` whose
conjugates and Bregman distances are closed forms, so certificate identities
can be tested to tight tolerances.  Each part of a spec (a feasible region,
or a smooth f) comes from a private function that returns its oracles as a dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import INF, ConstructionError, LinearMap, ProblemSpec

__all__ = [
    "SimplexRegion",
    "BoxRegion",
    "L1BallRegion",
    "softmax",
    "make_quadratic_simplex",
    "make_quadratic_box",
    "make_quadratic_l1_ball",
    "make_entropy_lse",
    "make_holder_power_simplex",
    "random_linear_map",
]

_SET_TOL = 1e-9


# ---------------------------------------------------------------------------
# numerically careful scalar building blocks
# ---------------------------------------------------------------------------

def _log_sum_exp(u) -> float:
    """log(sum_i exp(u_i)) with max subtraction for overflow safety."""
    u = np.asarray(u, dtype=float)
    m = float(np.max(u))
    return m + math.log(float(np.sum(np.exp(u - m))))


def softmax(u) -> np.ndarray:
    """exp(u_i) / sum_j exp(u_j), explicitly normalized."""
    u = np.asarray(u, dtype=float)
    e = np.exp(u - np.max(u))
    return e / np.sum(e)


def _neg_entropy(x) -> float:
    """sum_i x_i log x_i with 0 log 0 = 0; expects nonnegative input."""
    x = np.asarray(x, dtype=float)
    mask = x > 0.0
    return float(np.sum(x[mask] * np.log(x[mask])))


def _lse_bregman(v2, v1) -> float:
    # D_lse(v2, v1) = KL(softmax(v1) || softmax(v2)), computed through log
    # probabilities so nearby arguments do not cancel.
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    logp1 = v1 - _log_sum_exp(v1)
    logp2 = v2 - _log_sum_exp(v2)
    p1 = np.exp(logp1)
    return max(float(np.sum(p1 * (logp1 - logp2))), 0.0)


# ---------------------------------------------------------------------------
# feasible regions (h = indicator, h* = support function, (h*)' = LMO)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexRegion:
    """Probability simplex {x >= 0, sum x = 1}."""

    n: int

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(abs(float(np.sum(x)) - 1.0) <= _SET_TOL and np.min(x) >= -_SET_TOL)

    def support(self, c) -> float:
        return float(np.max(c))

    def lmo(self, c) -> np.ndarray:
        # np.argmax takes the first maximizer: lowest-index tie break.
        out = np.zeros(self.n)
        out[int(np.argmax(c))] = 1.0
        return out

    def vertices(self) -> np.ndarray:
        return np.eye(self.n)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < 0.5:
            return self.vertices()[rng.integers(self.n)].copy()
        return rng.dirichlet(np.ones(self.n))


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box {l <= x <= u}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConstructionError("box bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ConstructionError("box has lower > upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - _SET_TOL) and np.all(x <= self.upper + _SET_TOL))

    def support(self, c) -> float:
        c = np.asarray(c, dtype=float)
        return float(np.sum(np.where(c > 0.0, c * self.upper, c * self.lower)))

    def lmo(self, c) -> np.ndarray:
        # Coordinates with c_i = 0 go to the lower corner (fixed convention).
        c = np.asarray(c, dtype=float)
        return np.where(c > 0.0, self.upper, self.lower).astype(float)

    def vertices(self) -> np.ndarray:
        if self.n > 16:
            raise ConstructionError("box vertex enumeration limited to n <= 16")
        corners = np.array(np.meshgrid(*[[lo, hi] for lo, hi in zip(self.lower, self.upper)],
                                       indexing="ij"))
        return corners.reshape(self.n, -1).T.copy()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < 0.5:
            mask = rng.random(self.n) < 0.5
            return np.where(mask, self.upper, self.lower).astype(float)
        return self.lower + rng.random(self.n) * (self.upper - self.lower)


@dataclass(frozen=True)
class L1BallRegion:
    """Scaled cross-polytope {||x||_1 <= radius}."""

    n: int
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ConstructionError(f"l1 ball radius must be positive, got {self.radius}")

    def contains(self, x) -> bool:
        return bool(float(np.sum(np.abs(x))) <= self.radius + _SET_TOL * (1.0 + self.radius))

    def support(self, c) -> float:
        return self.radius * float(np.max(np.abs(c)))

    def lmo(self, c) -> np.ndarray:
        # Tie break: largest |c_i|, then lowest index; sign(0) counts as +.
        c = np.asarray(c, dtype=float)
        i = int(np.argmax(np.abs(c)))
        out = np.zeros(self.n)
        out[i] = self.radius if c[i] >= 0.0 else -self.radius
        return out

    def vertices(self) -> np.ndarray:
        eye = self.radius * np.eye(self.n)
        return np.vstack([eye, -eye])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < 0.5:
            v = self.vertices()
            return v[rng.integers(len(v))].copy()
        w = rng.dirichlet(np.ones(self.n)) * rng.random() * self.radius
        return w * rng.choice([-1.0, 1.0], size=self.n)


def _indicator_oracles(region):
    def h_val(x):
        return 0.0 if region.contains(x) else INF

    return {
        "h_val": h_val,
        "h_conj_val": region.support,
        "h_conj_grad": region.lmo,
    }


# ---------------------------------------------------------------------------
# smooth parts
# ---------------------------------------------------------------------------

def _quadratic_oracles(Q, b, m: int) -> dict:
    """f(y) = 1/2 y'Qy + b'y with symmetric positive semidefinite Q.

    The conjugate is 1/2 (u-b)'Q^+(u-b) on b + range(Q) and +inf outside,
    which covers the singular and the zero-matrix cases.
    """
    Q = np.eye(m) if Q is None else np.asarray(Q, dtype=float)
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    if Q.shape != (m, m):
        raise ConstructionError(f"Q must be {m}x{m}, got {Q.shape}")
    if b.shape != (m,):
        raise ConstructionError(f"b must have length {m}, got {b.shape}")
    if not np.array_equal(Q, Q.T):
        raise ConstructionError("Q must be exactly symmetric")
    w, V = np.linalg.eigh(Q)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if float(np.min(w)) < -1e-12 * scale:
        raise ConstructionError("Q must be positive semidefinite")
    w = np.where(w > 1e-12 * scale, w, 0.0)
    pinv = (V * np.where(w > 0.0, 1.0 / np.where(w > 0.0, w, 1.0), 0.0)) @ V.T
    positive_definite = bool(np.all(w > 0.0))

    def f_val(y) -> float:
        return 0.5 * float(y @ Q @ y) + float(b @ y)

    def f_grad(y) -> np.ndarray:
        return Q @ y + b

    def f_conj_val(u) -> float:
        d = np.asarray(u, dtype=float) - b
        if not positive_definite:
            # range test: d must be reproduced by Q Q^+ d
            resid = d - Q @ (pinv @ d)
            if float(np.linalg.norm(resid)) > 1e-9 * (1.0 + float(np.linalg.norm(d))):
                return INF
        return 0.5 * float(d @ pinv @ d)

    def breg_f(y2, y1) -> float:
        d = np.asarray(y2, dtype=float) - np.asarray(y1, dtype=float)
        return max(0.5 * float(d @ Q @ d), 0.0)

    return {"f_val": f_val, "f_grad": f_grad, "f_conj_val": f_conj_val, "breg_f": breg_f}


def _holder_oracles(p: float) -> dict:
    """f(y) = (1/p) sum |y_i|^p for p in (1, 2]; gradient sign(y)|y|^{p-1}.

    The gradient is Holder continuous of order p-1, so the certificate decays
    like k^{-(p-1)} instead of the quadratic-case k^{-1}.
    """
    if not (1.0 < p <= 2.0):
        raise ConstructionError(f"power exponent must be in (1, 2], got {p}")
    p = float(p)
    q = p / (p - 1.0)

    def f_val(y) -> float:
        return float(np.sum(np.abs(y) ** p)) / p

    def f_grad(y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.abs(y) ** (p - 1.0)

    def f_conj_val(u) -> float:
        return float(np.sum(np.abs(u) ** q)) / q

    return {"f_val": f_val, "f_grad": f_grad, "f_conj_val": f_conj_val}


def _lse_f_oracles():
    return {
        "f_val": _log_sum_exp,
        "f_grad": softmax,
        "f_conj_val": lambda u: _neg_entropy(u) if abs(float(np.sum(u)) - 1.0) <= _SET_TOL
        and float(np.min(u)) >= -_SET_TOL else INF,
        "breg_f": _lse_bregman,
    }


# ---------------------------------------------------------------------------
# spec constructors
# ---------------------------------------------------------------------------

def _resolve_map(n: int, a) -> LinearMap:
    if a is None:
        return LinearMap.identity(n)
    if isinstance(a, LinearMap):
        if a.dim_in != n:
            raise ConstructionError(f"linear map expects input dim {a.dim_in}, problem has {n}")
        return a
    lm = LinearMap.from_matrix(a)
    if lm.dim_in != n:
        raise ConstructionError(f"matrix has {lm.dim_in} columns, problem has dimension {n}")
    return lm


def random_linear_map(m: int, n: int, rng: np.random.Generator) -> LinearMap:
    """Dense random map with standard normal entries; fixed by the rng state."""
    return LinearMap.from_matrix(rng.standard_normal((m, n)))


def _indicator_spec(region, fpart_oracles, linmap, name) -> ProblemSpec:
    return ProblemSpec(
        linmap=linmap,
        name=name,
        sample_x=region.sample,
        **_indicator_oracles(region),
        **fpart_oracles,
    )


def make_quadratic_simplex(Q=None, b=None, n: int = 2, a=None) -> ProblemSpec:
    """min 1/2 (Ax)'Q(Ax) + b'(Ax) over the probability simplex."""
    linmap = _resolve_map(n, a)
    fpart = _quadratic_oracles(Q, b, linmap.dim_out)
    region = SimplexRegion(n)
    return _indicator_spec(region, fpart, linmap, "quadratic-simplex")


def _box_bound(value, default: float, n: int, name: str) -> np.ndarray:
    bound = np.asarray(default if value is None else value, dtype=float)
    if bound.ndim != 0 and bound.shape != (n,):
        raise ConstructionError(f"box bound {name} must be a scalar or have length {n}, "
                                f"got shape {bound.shape}")
    return bound * np.ones(n)


def make_quadratic_box(Q=None, b=None, lower=None, upper=None, n: int = 2, a=None) -> ProblemSpec:
    """Quadratic objective over the box [lower, upper]^n (default [-1, 1]^n);
    each bound is a scalar or a length-n vector."""
    lower, upper = (_box_bound(v, default, n, name)
                    for v, default, name in ((lower, -1.0, "lower"), (upper, 1.0, "upper")))
    linmap = _resolve_map(n, a)
    fpart = _quadratic_oracles(Q, b, linmap.dim_out)
    region = BoxRegion(lower, upper)
    return _indicator_spec(region, fpart, linmap, "quadratic-box")


def make_quadratic_l1_ball(Q=None, b=None, radius: float = 1.0, n: int = 2, a=None) -> ProblemSpec:
    """Quadratic objective over the l1 ball of the given radius."""
    linmap = _resolve_map(n, a)
    fpart = _quadratic_oracles(Q, b, linmap.dim_out)
    region = L1BallRegion(n, radius)
    return _indicator_spec(region, fpart, linmap, "quadratic-l1")


def make_entropy_lse(n: int, a=None, f_kind: str = "quadratic", Q=None, b=None) -> ProblemSpec:
    """Negative entropy on the simplex as h, so h* = log-sum-exp and the
    conjugate-subgradient oracle is softmax.  f is quadratic (``Q``, ``b``)
    by default or log-sum-exp, which takes neither, when ``f_kind="lse"``."""
    if n < 2:
        raise ConstructionError(f"entropy problem needs n >= 2, got {n}")
    linmap = _resolve_map(n, a)
    m = linmap.dim_out

    if f_kind == "quadratic":
        fpart = _quadratic_oracles(Q, b, m)
    elif f_kind == "lse":
        unread = [name for name, value in (("Q", Q), ("b", b)) if value is not None]
        if unread:
            raise ConstructionError(f"f_kind 'lse' takes no {' or '.join(unread)}")
        fpart = _lse_f_oracles()
    else:
        raise ConstructionError(f"unknown f_kind {f_kind!r} (expected 'quadratic' or 'lse')")

    region = SimplexRegion(n)

    def h_val(x):
        if not region.contains(x):
            return INF
        return _neg_entropy(np.maximum(np.asarray(x, dtype=float), 0.0))

    def sample_interior(rng):
        return softmax(rng.standard_normal(n))

    return ProblemSpec(
        linmap=linmap,
        h_val=h_val,
        h_conj_val=_log_sum_exp,
        h_conj_grad=softmax,
        breg_hconj=_lse_bregman,
        name="entropy-lse",
        sample_x=sample_interior,
        **fpart,
    )


def make_holder_power_simplex(p: float, n: int = 2, a=None) -> ProblemSpec:
    """f(x) = (1/p) sum |x_i|^p over the simplex; exercises non-quadratic decay."""
    linmap = _resolve_map(n, a)
    fpart = _holder_oracles(p)
    region = SimplexRegion(n)
    return _indicator_spec(region, fpart, linmap, "holder-power-simplex")
