"""The shipped oracles against literal copies written with numpy's function
forms (``np.sum``, ``np.max``, ``np.min``, ``np.all``, ``np.argmax``): the
same bits on random inputs of dimension 1, 2, 3 and 50, Python lists
accepted wherever arrays are, the lowest-index tie break of every LMO, and
the log-sum-exp Bregman distance's base memo invisible in its values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fenchelduo as fd
from fenchelduo import problems

DIMS = (1, 2, 3, 50)
TOL = 1e-9


def ref_log_sum_exp(u):
    u = np.asarray(u, dtype=float)
    m = float(np.max(u))
    return m + math.log(float(np.sum(np.exp(u - m))))


def ref_softmax(u):
    u = np.asarray(u, dtype=float)
    e = np.exp(u - np.max(u))
    return e / np.sum(e)


def ref_neg_entropy(x):
    x = np.asarray(x, dtype=float)
    mask = x > 0.0
    return float(np.sum(x[mask] * np.log(x[mask])))


def ref_lse_bregman(v2, v1):
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    logp1 = v1 - ref_log_sum_exp(v1)
    logp2 = v2 - ref_log_sum_exp(v2)
    return max(float(np.sum(np.exp(logp1) * (logp1 - logp2))), 0.0)


def ref_on_simplex(x):
    x = np.asarray(x, dtype=float)
    return bool(abs(float(np.sum(x)) - 1.0) <= TOL and np.min(x) >= -TOL)


def ref_simplex_lmo(c):
    out = np.zeros(len(c))
    out[int(np.argmax(c))] = 1.0
    return out


def ref_box_contains(lo, hi, x):
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= lo - TOL) and np.all(x <= hi + TOL))


def ref_box_support(lo, hi, c):
    c = np.asarray(c, dtype=float)
    return float(np.sum(np.where(c > 0.0, c * hi, c * lo)))


def ref_l1_lmo(r, c):
    c = np.asarray(c, dtype=float)
    i = int(np.argmax(np.abs(c)))
    out = np.zeros(len(c))
    out[i] = r if c[i] >= 0.0 else -r
    return out


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def points(n, rng):
    """Random points off, on and at a vertex of the simplex, and in the box [-1, 1]^n."""
    vertex = np.eye(n)[rng.integers(n)]
    return [rng.standard_normal(n), rng.dirichlet(np.ones(n)), vertex, 2.0 * rng.random(n) - 1.0,
            np.full(n, 1.0 / n), 3.0 * rng.standard_normal(n)]


def same(got, want, *args):
    """``got`` gives ``want``'s bits on arrays and on the same arguments as lists."""
    expected = bits(want(*args))
    assert bits(got(*args)) == expected
    assert bits(got(*[np.asarray(a).tolist() for a in args])) == expected


@pytest.mark.parametrize("n", DIMS)
def test_scalar_building_blocks(n):
    rng = np.random.default_rng(n)
    for x in points(n, rng):
        same(problems._log_sum_exp, ref_log_sum_exp, x)
        same(fd.softmax, ref_softmax, x)
        same(problems._neg_entropy, ref_neg_entropy, np.abs(x))
        same(problems._lse_bregman(), ref_lse_bregman, x, rng.standard_normal(n))


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=12))
@example(3, 0, [(0, False), (0, True)])  # the base changed in place, between two calls
def test_lse_bregman_memo_gives_the_memo_free_kl(n, seed, calls):
    """one D_lse, called with bases that take turns and that change in place
    between calls (the same array, new values), gives the literal memo-free
    KL bit for bit at every call"""
    rng = np.random.default_rng(seed)
    bases = [3.0 * rng.standard_normal(n) for _ in range(3)]
    breg = problems._lse_bregman()
    for i, change in calls:
        if change:
            bases[i] += rng.standard_normal(n)
        v2 = bases[(i + 1) % 3] if rng.random() < 0.3 else rng.standard_normal(n)
        assert bits(breg(v2, bases[i])) == bits(ref_lse_bregman(v2, bases[i]))


@pytest.mark.parametrize("n", DIMS)
def test_regions(n):
    rng = np.random.default_rng(100 + n)
    lo, hi = -rng.random(n), rng.random(n)
    simplex, box, ball = fd.SimplexRegion(n), fd.BoxRegion(lo, hi), fd.L1BallRegion(n, 1.5)
    for x in points(n, rng):
        same(simplex.contains, ref_on_simplex, x)
        same(simplex.support, lambda c: float(np.max(c)), x)
        same(simplex.lmo, ref_simplex_lmo, x)
        same(box.contains, lambda p: ref_box_contains(lo, hi, p), x)
        same(box.support, lambda c: ref_box_support(lo, hi, c), x)
        same(box.lmo, lambda c: np.where(np.asarray(c) > 0.0, hi, lo), x)
        same(ball.contains, lambda p: bool(float(np.sum(np.abs(p))) <= 1.5 + TOL * 2.5), x)
        same(ball.support, lambda c: 1.5 * float(np.max(np.abs(c))), x)
        same(ball.lmo, lambda c: ref_l1_lmo(1.5, c), x)


@pytest.mark.parametrize("n", DIMS)
def test_holder_and_lse_closures(n):
    rng = np.random.default_rng(200 + n)
    holder = fd.make_holder_power_simplex(1.5, n)
    q = 1.5 / 0.5
    for x in points(n, rng):
        same(holder.f_val, lambda y: float(np.sum(np.abs(y) ** 1.5)) / 1.5, x)
        same(holder.f_conj_val, lambda u: float(np.sum(np.abs(u) ** q)) / q, x)
        if n >= 2:
            lse = fd.make_entropy_lse(n, f_kind="lse")
            same(lse.f_conj_val,
                 lambda u: ref_neg_entropy(u) if abs(float(np.sum(u)) - 1.0) <= TOL
                 and float(np.min(u)) >= -TOL else math.inf, x)
            same(lse.h_val, lambda p: ref_neg_entropy(np.maximum(p, 0.0))
                 if ref_on_simplex(p) else math.inf, x)


FAMILIES = {
    "quadratic-simplex": lambda n, b: fd.make_quadratic_simplex(b=b, n=n),
    "quadratic-box": lambda n, b: fd.make_quadratic_box(b=b, n=n),
    "quadratic-l1": lambda n, b: fd.make_quadratic_l1_ball(b=b, n=n),
    "entropy-lse": lambda n, b: fd.make_entropy_lse(n, b=b),
    "entropy-lse-f": lambda n, b: fd.make_entropy_lse(n, f_kind="lse"),
    "holder-power-simplex": lambda n, b: fd.make_holder_power_simplex(1.5, n),
}
ROLES = ("f_val", "f_grad", "f_conj_val", "h_val", "h_conj_val", "h_conj_grad")


@pytest.mark.parametrize("family, n", [(family, n) for family in sorted(FAMILIES) for n in DIMS
                                       if n >= 2 or not family.startswith("entropy")])
def test_family_oracles_accept_lists(family, n):
    rng = np.random.default_rng(300 + n)
    spec = FAMILIES[family](n, 0.3 * rng.standard_normal(n))
    for x in points(n, rng):
        for role in ROLES:
            oracle = getattr(spec, role)
            assert bits(oracle(x.tolist())) == bits(oracle(x)), role
        for role in ("breg_f", "breg_hconj"):
            oracle = getattr(spec, role)
            if oracle is not None:
                y = x + 0.1 * rng.standard_normal(n)
                assert bits(oracle(y.tolist(), x.tolist())) == bits(oracle(y, x)), role


def test_lmo_ties_go_to_the_lowest_index():
    simplex = fd.SimplexRegion(5)
    np.testing.assert_array_equal(simplex.lmo([0.5, 2.0, -1.0, 2.0, 2.0]), np.eye(5)[1])
    np.testing.assert_array_equal(simplex.lmo(np.zeros(5)), np.eye(5)[0])
    ball = fd.L1BallRegion(4, 2.0)
    np.testing.assert_array_equal(ball.lmo([1.0, -3.0, 3.0, 0.0]), [0.0, -2.0, 0.0, 0.0])
    np.testing.assert_array_equal(ball.lmo(np.zeros(4)), [2.0, 0.0, 0.0, 0.0])
    box = fd.BoxRegion(-np.ones(3), np.ones(3))
    np.testing.assert_array_equal(box.lmo([0.0, 1.0, -0.0]), [-1.0, 1.0, -1.0])
    spec = fd.make_entropy_lse(3)
    np.testing.assert_array_equal(spec.h_conj_grad([1.0, 1.0, 1.0]), np.full(3, 1.0 / 3.0))
