"""Problem library: closed-form conjugates, LMO optimality by enumeration,
samplers that draw one vertex alone, and construction-time validation."""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

import fenchelduo as fd
from fenchelduo import cli, problems
from reference_drivers import fenchel_young_defect

mpmath.mp.dps = 50


class TestQuadratic:
    def test_self_conjugacy(self):
        spec = fd.make_quadratic_simplex(n=2)
        np.testing.assert_array_equal(spec.f_grad(np.array([1.0, 0.0])), [1.0, 0.0])
        assert spec.f_conj_val(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=0)

    def test_lmo_picks_best_vertex(self):
        spec = fd.make_quadratic_simplex(n=2)
        np.testing.assert_array_equal(spec.h_conj_grad(np.array([-1.0, 0.0])), [0.0, 1.0])

    def test_linear_objective_has_zero_bregman(self):
        spec = fd.make_quadratic_simplex(Q=np.zeros((2, 2)), b=np.array([1.0, 2.0]), n=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert fd.bregman_f(rng.standard_normal(2), rng.standard_normal(2), spec) == 0.0

    def test_zero_matrix_conjugate_is_indicator_at_b(self):
        spec = fd.make_quadratic_simplex(Q=np.zeros((2, 2)), b=np.array([1.0, 2.0]), n=2)
        assert spec.f_conj_val(np.array([1.0, 2.0])) == 0.0
        assert spec.f_conj_val(np.array([1.0, 2.5])) == np.inf

    def test_singular_psd_conjugate_range_test(self):
        spec = fd.make_quadratic_simplex(Q=np.diag([1.0, 0.0]), n=2)
        assert spec.f_conj_val(np.array([0.7, 0.0])) == pytest.approx(0.245)
        assert spec.f_conj_val(np.array([0.7, 0.1])) == np.inf

    def test_asymmetric_rejected(self):
        with pytest.raises(fd.ConstructionError):
            fd.make_quadratic_simplex(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), n=2)

    def test_indefinite_rejected(self):
        with pytest.raises(fd.ConstructionError):
            fd.make_quadratic_simplex(Q=np.diag([1.0, -1.0]), n=2)

    @pytest.mark.parametrize("Q, rejected", [
        (np.eye(3), True), (np.eye(2)[:1], True), (np.ones(3), True),
        (np.eye(2), False), (np.ones(2), False),
    ], ids=["3x3", "1x2", "length-3", "2x2", "length-2"])
    def test_wrong_shape_Q_rejected(self, Q, rejected):
        """Q is m x m or a length-m vector holding its diagonal, and nothing else"""
        if rejected:
            with pytest.raises(fd.ConstructionError,
                               match=r"^Q must be a length-2 diagonal or 2x2, got \("):
                fd.make_quadratic_simplex(Q=Q, n=2)
        else:
            spec = fd.make_quadratic_simplex(Q=Q, n=2)
            np.testing.assert_array_equal(spec.f_grad(np.array([1.0, 0.0])), [1.0, 0.0])

    def test_wrong_length_b_rejected(self):
        with pytest.raises(fd.ConstructionError, match="b must have length 2"):
            fd.make_quadratic_simplex(b=np.ones(3), n=2)

    def test_conjugate_against_numeric_sup(self):
        # f*(u) = sup_y <u, y> - f(y), maximized numerically from scratch
        rng = np.random.default_rng(42)
        q = rng.standard_normal((3, 3))
        Q = (q + q.T) / 2 + 3.0 * np.eye(3)
        b = rng.standard_normal(3)
        spec = fd.make_quadratic_simplex(Q=Q, b=b, n=3)
        for _ in range(5):
            u = rng.standard_normal(3)
            res = optimize.minimize(lambda y: -(u @ y) + 0.5 * y @ Q @ y + b @ y,
                                    np.zeros(3), method="BFGS", tol=1e-12)
            assert spec.f_conj_val(u) == pytest.approx(-res.fun, rel=1e-7)


@st.composite
def diagonal_quadratics(draw):
    """A diagonal Q (None, c I, a random positive diagonal, or one with zeros,
    all of them perhaps) with the diagonal it means, a b, and points whose
    entries are sometimes exactly 0.  b has no -0.0 entry: with b_i = -0.0
    and q_i y_i = -0.0, q * y + b keeps the sign that the matrix product,
    which sums from +0.0, drops, a difference that compares equal."""
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["none", "scaled", "positive", "zeros"]))
    if kind == "none":
        Q, q = None, np.ones(m)
    elif kind == "scaled":
        c = draw(st.sampled_from([0.0, 0.5, 2.0]) | st.floats(1e-3, 1e3))
        Q, q = c * np.eye(m), np.full(m, c)
    else:
        q = rng.random(m) + 0.1
        if kind == "zeros":
            q[rng.random(m) < 0.5] = 0.0
        Q = np.diag(q)
    b = rng.standard_normal(m) if draw(st.booleans()) else np.zeros(m)

    def point():
        y = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(m)
        y[rng.random(m) < 0.3] = 0.0
        return y

    return Q, q, b, [point() for _ in range(3)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(diagonal_quadratics())
def test_diagonal_q_is_the_matrix_form_bit_for_bit(case):
    """the elementwise forms of a diagonal Q give f, f', f* (with its range
    test) and D_f of the literal matrix forms, with Q and its
    pseudo-inverse written out, bit for bit; Q given as its diagonal vector
    gives the same values as its 2-D form; no closure keeps an m x m array"""
    Q, q, b, (y1, y2, y3) = case
    m = q.shape[0]
    spec = fd.make_quadratic_box(Q=Q, b=b, n=m)
    from_vector = fd.make_quadratic_box(Q=q.copy(), b=b, n=m)
    M = np.diag(q)
    keep = q > 1e-12 * max(1.0, float(np.abs(q).max()))
    pinv = np.diag(np.where(keep, 1.0 / np.where(keep, q, 1.0), 0.0))

    def conj(u):
        d = u - b
        resid = d - M @ (pinv @ d)
        if not keep.all() and float(np.linalg.norm(resid)) > 1e-9 * (
                1.0 + float(np.linalg.norm(d))):
            return math.inf
        return 0.5 * float(d @ pinv @ d)

    def bits(value):
        return np.asarray(value, dtype=float).tobytes()

    for y in (y1, y2):
        for s in (spec, from_vector):
            assert bits(s.f_val(y)) == bits(0.5 * float(y @ M @ y) + float(b @ y))
            assert bits(s.f_grad(y)) == bits(M @ y + b)
            # u in b + range(Q), and u anywhere: off the range when Q has zeros
            for u in (M @ y + b, y3):
                assert bits(s.f_conj_val(u)) == bits(conj(u))
            d = y - y2
            assert bits(s.breg_f(y, y2)) == bits(max(0.5 * float(d @ M @ d), 0.0))
    for s in (spec, from_vector):
        for name in ("f_val", "f_grad", "f_conj_val", "breg_f"):
            for cell in getattr(s, name).__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    assert value.ndim == 1 and value.base is None, name


class TestEntropyLse:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(fd.softmax(np.zeros(2)), [0.5, 0.5], atol=0)

    def test_lse_value_high_precision(self):
        want = float(mpmath.log(2 * mpmath.e))  # lse(1,1) = 1 + log 2
        assert problems._log_sum_exp(np.array([1.0, 1.0])) == pytest.approx(want, rel=1e-15)

    def test_fenchel_young_at_interior_point(self):
        spec = fd.make_entropy_lse(2)
        u = np.array([1.0, -1.0])
        p = spec.h_conj_grad(u)
        defect = spec.h_val(p) + spec.h_conj_val(u) - float(u @ p)
        assert defect == pytest.approx(0.0, abs=1e-12)

    def test_softmax_normalized_and_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = fd.softmax(rng.standard_normal(6) * rng.choice([0.1, 1.0, 50.0]))
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12
            assert np.all(p > 0.0)

    def test_lse_overflow_safe(self):
        assert problems._log_sum_exp(np.array([1000.0, 0.0])) == pytest.approx(1000.0, abs=1e-12)
        assert problems._log_sum_exp(np.array([-1000.0, -1000.0])) == pytest.approx(
            -1000.0 + np.log(2.0), rel=1e-15)

    def test_lse_f_kind_conjugate(self):
        spec = fd.make_entropy_lse(2, f_kind="lse")
        assert spec.f_conj_val(np.array([0.5, 0.5])) == pytest.approx(-np.log(2.0), rel=1e-15)
        assert spec.f_conj_val(np.array([0.5, 0.6])) == np.inf

    def test_lse_f_kind_rejects_quadratic_data(self):
        with pytest.raises(fd.ConstructionError, match="takes no Q or b"):
            fd.make_entropy_lse(3, f_kind="lse", Q=5.0 * np.eye(3), b=np.ones(3))
        with pytest.raises(fd.ConstructionError, match="takes no b"):
            fd.make_entropy_lse(3, f_kind="lse", b=np.ones(3))

    @pytest.mark.parametrize("x", [[0.5, 0.6, 0.0], [1.5, -0.5, 0.0], [0.2, 0.2, 0.2]],
                             ids=["sum-above-one", "negative-entry", "sum-below-one"])
    def test_h_is_infinite_outside_simplex(self, x):
        spec = fd.make_entropy_lse(3)
        assert spec.h_val(np.array(x)) == math.inf
        assert math.isfinite(spec.h_val(np.array([0.2, 0.3, 0.5])))

    def test_rejects_tiny_dimension(self):
        with pytest.raises(fd.ConstructionError):
            fd.make_entropy_lse(1)

    @pytest.mark.parametrize("f_kind", ["quadratic", "lse"])
    def test_h_conjugate_side_is_the_lse_f_part(self, f_kind):
        """each part's D_f is the same function with a memo of its own, so
        hybrid's two sides of the lse spec do not evict each other's base"""
        spec = fd.make_entropy_lse(3, f_kind=f_kind)
        lse = problems._lse_f_oracles()
        assert spec.h_conj_val is lse["f_val"]
        assert spec.h_conj_grad is lse["f_grad"]
        assert spec.breg_hconj.__code__ is lse["breg_f"].__code__
        assert spec.breg_hconj is not lse["breg_f"]
        if f_kind == "lse":
            assert spec.breg_f.__code__ is spec.breg_hconj.__code__
            assert spec.breg_f is not spec.breg_hconj

    def test_rejects_unknown_f_kind(self):
        with pytest.raises(fd.ConstructionError):
            fd.make_entropy_lse(3, f_kind="cubic")


def _entropy_h_reference(x):
    """The entropy h written out: +inf unless the entries sum to 1 and none is
    below 0, each to within the set tolerance; else sum x_i log x_i over the
    entries clipped at 0, with 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    tol = problems._SET_TOL
    if not (abs(float(x.sum()) - 1.0) <= tol and x.min() >= -tol):
        return math.inf
    x = np.maximum(x, 0.0)
    positive = x[x > 0.0]
    return float((positive * np.log(positive)).sum())


@st.composite
def near_simplex(draw):
    """A point of the simplex (vertices and faces too), moved by 0, by about the
    set tolerance, by ten times it, or by up to 1 in each entry."""
    n = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=n,
                                     max_size=n)))
    if weights.sum() == 0.0:
        weights[0] = 1.0
    shift = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([0.0, problems._SET_TOL, 10 * problems._SET_TOL, 1.0]))
    return weights / weights.sum() + scale * shift


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(near_simplex())
@example(np.array([0.5, 0.5 + 5e-10, -5e-10]))  # a negative entry within the tolerance
@example(np.array([1.0, 0.0, 0.0]))
@example(np.array([0.5, 0.5 + 2e-9, 0.0]))
def test_entropy_h_is_the_written_out_entropy_bit_for_bit(x):
    """the entropy spec's h, the lse f part's f*, is the hand-written entropy
    on, near and off the simplex, bit for bit"""
    for f_kind in ("quadratic", "lse"):
        got = fd.make_entropy_lse(x.shape[0], f_kind=f_kind).h_val(x)
        assert np.float64(got).tobytes() == np.float64(_entropy_h_reference(x)).tobytes()


class TestHolderPower:
    def test_p2_reduces_to_quadratic(self):
        spec2 = fd.make_holder_power_simplex(2.0, 3)
        quad = fd.make_quadratic_simplex(n=3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = rng.standard_normal(3)
            assert spec2.f_val(y) == pytest.approx(quad.f_val(y), rel=1e-14)
            np.testing.assert_allclose(spec2.f_grad(y), quad.f_grad(y), rtol=1e-14)
            assert spec2.f_conj_val(y) == pytest.approx(quad.f_conj_val(y), rel=1e-14)

    def test_scalar_bregman_from_zero(self):
        # D(1, 0) = f(1) - f(0) - f'(0) = 1/p
        spec = fd.make_holder_power_simplex(1.5, 1)
        got = fd.bregman_f(np.array([1.0]), np.array([0.0]), spec)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_gradient_sign(self):
        spec = fd.make_holder_power_simplex(1.5, 1)
        assert spec.f_grad(np.array([-1.0]))[0] == pytest.approx(-1.0, abs=0)

    def test_exponent_range_enforced(self):
        for p in (1.0, 2.5, 0.5):
            with pytest.raises(fd.ConstructionError):
                fd.make_holder_power_simplex(p, 2)

    def test_conjugate_against_numeric_sup(self):
        spec = fd.make_holder_power_simplex(1.5, 1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(1) * 2.0
            t = np.linspace(-50.0, 50.0, 400001)
            sup = np.max(u[0] * t - np.abs(t) ** 1.5 / 1.5)
            assert spec.f_conj_val(u) == pytest.approx(sup, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("region", [
    fd.SimplexRegion(7),
    fd.BoxRegion(np.array([-1.0, 0.0, -2.0, -1.0, 0.5, -3.0]),
                 np.array([1.0, 2.0, -1.0, 4.0, 1.5, 3.0])),
    fd.L1BallRegion(5, 2.5),
])
def test_lmo_optimal_by_enumeration(region):
    rng = np.random.default_rng(13)
    verts = region.vertices()
    for _ in range(100):
        c = rng.standard_normal(verts.shape[1])
        s = region.lmo(c)
        assert region.contains(s)
        best = float(np.max(verts @ c))
        assert float(c @ s) >= best - 1e-12 * (1.0 + abs(best))
        assert region.support(c) == pytest.approx(best, rel=1e-12)


def test_l1_lmo_tie_break():
    region = fd.L1BallRegion(3, 2.0)
    np.testing.assert_array_equal(region.lmo(np.array([1.0, -1.0, 0.5])), [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(region.lmo(np.array([-1.0, 1.0, 0.0])), [-2.0, 0.0, 0.0])
    np.testing.assert_array_equal(region.lmo(np.zeros(3)), [2.0, 0.0, 0.0])


class TestBoxBounds:
    def test_scalar_and_length_n_bounds(self):
        spec = fd.make_quadratic_box(lower=0.0, upper=[1.0, 2.0, 3.0], n=3)
        np.testing.assert_array_equal(spec.h_conj_grad(np.ones(3)), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(spec.h_conj_grad(-np.ones(3)), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bounds", [{"lower": [0.0, 1.0]}, {"upper": [1.0] * 4},
                                        {"lower": [[0.0, 0.0, 0.0]]}])
    def test_wrong_length_rejected(self, bounds):
        with pytest.raises(fd.ConstructionError, match="length 3"):
            fd.make_quadratic_box(n=3, **bounds)


    @pytest.mark.parametrize("lower, upper", [(np.zeros(2), np.ones(3)),
                                              (np.zeros((1, 2)), np.ones((1, 2)))],
                             ids=["unequal-length", "2-D"])
    def test_region_rejects_mismatched_bounds(self, lower, upper):
        with pytest.raises(fd.ConstructionError, match="1-D arrays of equal length"):
            fd.BoxRegion(lower, upper)

    def test_region_rejects_lower_above_upper(self):
        with pytest.raises(fd.ConstructionError, match="lower > upper"):
            fd.BoxRegion(np.array([0.0, 2.0]), np.array([1.0, 1.0]))

    def test_vertex_enumeration_limited_to_sixteen(self):
        assert fd.BoxRegion(np.zeros(16), np.ones(16)).vertices().shape == (2 ** 16, 16)
        with pytest.raises(fd.ConstructionError, match="n <= 16"):
            fd.BoxRegion(np.zeros(17), np.ones(17)).vertices()


def test_samplers_stay_feasible():
    rng = np.random.default_rng(10)
    for region in (fd.SimplexRegion(4), fd.BoxRegion(-np.ones(3), np.ones(3)),
                   fd.L1BallRegion(4, 1.5)):
        for _ in range(100):
            assert region.contains(region.sample(rng))


def _table_sample(region, rng):
    """``region.sample`` as a row of the whole vertex table: the reference the
    samplers, which build the one vertex drawn, must reproduce"""
    if rng.random() < 0.5:
        v = region.vertices()
        return v[rng.integers(len(v))].copy()
    if isinstance(region, fd.SimplexRegion):
        return rng.dirichlet(np.ones(region.n))
    w = rng.dirichlet(np.ones(region.n)) * rng.random() * region.radius
    return w * rng.choice([-1.0, 1.0], size=region.n)


@pytest.mark.parametrize("region", [fd.SimplexRegion(1), fd.SimplexRegion(5),
                                    fd.L1BallRegion(1, 2.0), fd.L1BallRegion(4, 0.3)],
                         ids=["simplex-1", "simplex-5", "l1-1", "l1-4"])
def test_sampled_vertex_is_its_table_row(region):
    """a sampled vertex is the vertex table's row bit for bit, the ℓ1 ball's
    -0.0 entries included, from the same draws of the generator"""
    ours, table = np.random.default_rng(4), np.random.default_rng(4)
    signed_zeros = 0
    for _ in range(200):
        got, want = region.sample(ours), _table_sample(region, table)
        assert got.tobytes() == want.tobytes()
        signed_zeros += int(np.sum(np.signbit(got) & (got == 0.0)))
    assert ours.bit_generator.state == table.bit_generator.state
    assert (signed_zeros > 0) == (isinstance(region, fd.L1BallRegion) and region.n > 1)


@pytest.mark.parametrize("region", [fd.SimplexRegion(1000), fd.L1BallRegion(1000, 1.0)],
                         ids=["simplex", "l1"])
def test_sampling_builds_no_vertex_table(region):
    """drawing a point allocates a few length-n vectors, not the n x n table"""
    rng = np.random.default_rng(0)
    region.sample(rng)
    tracemalloc.start()
    try:
        for _ in range(20):
            region.sample(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 8 * region.n, peak


@pytest.mark.parametrize("build", [
    lambda m: fd.make_quadratic_box(b=np.ones(m), n=m),
    lambda m: fd.make_quadratic_box(Q=np.full(m, 2.0), b=np.ones(m), n=m),
    lambda m: cli.build_problem({"name": "quadratic-box", "n": m, "q": 2.0, "b": 1.0}, 0),
], ids=["None", "vector", "cli-scalar-q"])
def test_identity_q_builds_no_m_by_m_array(build):
    """Q=None, Q given as its diagonal, and the CLI's scalar q build their
    oracles from length-m vectors alone: no m x m array (2 MB at m = 500)
    and no eigendecomposition"""
    m = 500
    tracemalloc.start()
    try:
        build(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m / 20, peak


def test_scalar_q_builds_at_scale():
    """the CLI's scalar q is Q's diagonal: quadratic-simplex at n = 10^5
    builds in under 1 s and peaks at a few length-n vectors (0.8 MB each),
    where an n x n Q would take 80 GB"""
    start = time.perf_counter()
    tracemalloc.start()
    try:
        spec = cli.build_problem({"name": "quadratic-simplex", "n": 10 ** 5, "q": 2.0}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 8e6, peak
    assert spec.f_val(np.ones(10 ** 5)) == 10.0 ** 5


@pytest.mark.parametrize("m", [1, 2, 7, 60, 500])
def test_identity_q_is_the_unit_matrix_bit_for_bit(m):
    """Q=None gives the oracles of Q = np.eye(m) bit for bit"""
    rng = np.random.default_rng(m)
    b = rng.standard_normal(m)
    implicit = fd.make_quadratic_box(b=b, n=m)
    explicit = fd.make_quadratic_box(Q=np.eye(m), b=b, n=m)
    for _ in range(5):
        y1, y2 = rng.standard_normal((2, m))
        for name, args in (("f_val", (y1,)), ("f_grad", (y1,)), ("f_conj_val", (y2,)),
                           ("breg_f", (y1, y2))):
            got, want = getattr(implicit, name)(*args), getattr(explicit, name)(*args)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


@pytest.mark.parametrize("factory", [
    lambda: fd.make_quadratic_simplex(n=4),
    lambda: fd.make_quadratic_box(n=3),
    lambda: fd.make_quadratic_l1_ball(n=3, radius=2.0),
    lambda: fd.make_entropy_lse(4),
    lambda: fd.make_entropy_lse(3, f_kind="lse"),
    lambda: fd.make_holder_power_simplex(1.5, 4),
    lambda: fd.make_quadratic_simplex(Q=np.eye(5), b=np.linspace(-1, 1, 5), n=3,
                                      a=fd.random_linear_map(5, 3, np.random.default_rng(0))),
])
def test_thousand_fenchel_young_probes(factory):
    spec = factory()
    rng = np.random.default_rng(123)
    for _ in range(1000):
        y = rng.standard_normal(spec.dim_y) * rng.choice([0.3, 1.0, 3.0])
        w = rng.standard_normal(spec.dim_x) * rng.choice([0.3, 1.0, 3.0])
        assert fenchel_young_defect(spec, y, w) <= 1e-9


NAN, INF = float("nan"), float("inf")


# (constructor call, error it raises, text naming the parameter): non-finite
# data fails at construction, not later inside a run
@pytest.mark.parametrize("build, error, match", [
    (lambda: fd.make_quadratic_l1_ball(radius=NAN), fd.ConstructionError, "radius"),
    (lambda: fd.make_quadratic_l1_ball(radius=INF), fd.ConstructionError, "radius"),
    (lambda: fd.make_quadratic_box(lower=[NAN, 0.0]), fd.ConstructionError, "lower"),
    (lambda: fd.make_quadratic_box(upper=INF), fd.ConstructionError, "upper"),
    (lambda: fd.make_quadratic_simplex(b=[NAN, 0.0]), fd.ConstructionError,
     "b has non-finite"),
    (lambda: fd.make_entropy_lse(2, b=[NAN, 0.0]), fd.ConstructionError, "b has non-finite"),
    (lambda: fd.make_quadratic_simplex(Q=[[INF, 0.0], [0.0, 1.0]]), fd.ConstructionError,
     "Q has non-finite"),
    (lambda: fd.make_quadratic_simplex(Q=[[NAN, 0.0], [0.0, 1.0]]), fd.ConstructionError,
     "Q has non-finite"),
    (lambda: fd.OpenLoop(gamma=NAN), fd.RangeError, "open-loop exponent"),
    (lambda: fd.OpenLoop(gamma=INF), fd.RangeError, "open-loop exponent"),
], ids=["radius-nan", "radius-inf", "lower-nan", "upper-inf", "b-nan", "entropy-b-nan",
        "Q-inf", "Q-nan", "gamma-nan", "gamma-inf"])
def test_non_finite_data_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()


ZERO_ROWS = np.zeros((0, 2))


# every constructor resolves n and A in one place, which rejects an empty
# dimension before any array is built from it
@pytest.mark.parametrize("build, match", [
    (lambda: fd.make_quadratic_simplex(n=0), "dimension must be at least 1, got 0"),
    (lambda: fd.make_quadratic_simplex(n=-1), "dimension must be at least 1, got -1"),
    (lambda: fd.make_quadratic_box(n=0), "dimension must be at least 1, got 0"),
    (lambda: fd.make_quadratic_box(n=-1), "dimension must be at least 1, got -1"),
    (lambda: fd.make_quadratic_l1_ball(n=0), "dimension must be at least 1, got 0"),
    (lambda: fd.make_holder_power_simplex(1.5, n=0), "dimension must be at least 1, got 0"),
    (lambda: fd.make_quadratic_simplex(a=ZERO_ROWS), "to R\\^0;"),
    (lambda: fd.make_quadratic_l1_ball(a=ZERO_ROWS), "to R\\^0;"),
    (lambda: fd.make_entropy_lse(2, a=ZERO_ROWS), "to R\\^0;"),
    (lambda: fd.make_holder_power_simplex(1.5, a=ZERO_ROWS), "to R\\^0;"),
    (lambda: fd.make_holder_power_simplex(1.5, a=fd.LinearMap(
        apply=lambda x: x[:0], adjoint=lambda u: np.zeros(2), dim_in=2, dim_out=0)),
     "to R\\^0;"),
], ids=["simplex-n0", "simplex-n-1", "box-n0", "box-n-1", "l1-n0", "holder-n0",
        "simplex-0-rows", "l1-0-rows", "entropy-0-rows", "holder-0-rows", "holder-0-row-map"])
def test_empty_dimension_rejected(build, match):
    with pytest.raises(fd.ConstructionError, match=match):
        build()
