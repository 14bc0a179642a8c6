"""Problem library: closed-form conjugates, LMO optimality by enumeration,
and construction-time validation."""

import mpmath
import numpy as np
import pytest
from scipy import optimize

import fenchelduo as fd
from fenchelduo import problems

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

    def test_rejects_tiny_dimension(self):
        with pytest.raises(fd.ConstructionError):
            fd.make_entropy_lse(1)

    def test_rejects_unknown_f_kind(self):
        with pytest.raises(fd.ConstructionError):
            fd.make_entropy_lse(3, f_kind="cubic")


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


def test_samplers_stay_feasible():
    rng = np.random.default_rng(10)
    for region in (fd.SimplexRegion(4), fd.BoxRegion(-np.ones(3), np.ones(3)),
                   fd.L1BallRegion(4, 1.5)):
        for _ in range(100):
            assert region.contains(region.sample(rng))


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
        assert fd.fenchel_young_residual(spec, y=y, w=w) <= 1e-9
