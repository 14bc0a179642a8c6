"""Curvature probes against enumeration/dense-grid oracles, and rate fits on
synthetic decay data."""

import numpy as np
import pytest

import fenchelduo as fd


class TestProbeCurvature:
    def test_quadratic_simplex_recovers_diameter(self):
        # true constant: sup ||s - x||^2 over the simplex = squared diameter = 2,
        # attained at a vertex pair (enumeration oracle)
        verts = fd.SimplexRegion(2).vertices()
        truth = max(float((a - b) @ (a - b)) for a in verts for b in verts)
        assert truth == 2.0
        est = fd.probe_curvature(fd.make_quadratic_simplex(n=2), gamma=2.0,
                                 n_samples=200, seed=0)
        assert est.c_hat == pytest.approx(2.0, rel=1e-9)
        assert est.witness is not None
        assert est.skipped == 0

    def test_affine_objective_has_zero_curvature(self):
        spec = fd.make_quadratic_simplex(Q=np.zeros((3, 3)), b=np.ones(3), n=3)
        est = fd.probe_curvature(spec, gamma=2.0, n_samples=100, seed=1)
        assert est.c_hat == 0.0

    def test_estimate_monotone_in_samples(self):
        spec = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
        small = fd.probe_curvature(spec, gamma=2.0, n_samples=40, seed=3)
        big = fd.probe_curvature(spec, gamma=2.0, n_samples=160, seed=3)
        assert small.c_hat <= big.c_hat

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(fd.RangeError):
            fd.probe_curvature(fd.make_quadratic_simplex(n=2), gamma=1.0)

    def test_power_objective_on_segment_vs_dense_grid(self):
        # the [-1, 1] segment realized through the simplex and t = x1 - x2;
        # grid oracle over base point, both endpoints, and a fine alpha grid
        p = 1.5
        spec = fd.make_holder_power_simplex(p, 2, a=[[1.0, -1.0]])

        def d_scalar(t0, t1):
            return (abs(t1) ** p - abs(t0) ** p) / p - np.sign(t0) * abs(t0) ** (p - 1) * (t1 - t0)

        grid_sup = 0.0
        alphas = np.geomspace(1e-3, 1.0, 1000)
        for t in np.linspace(-1.0, 1.0, 401):
            for s in (-1.0, 1.0):
                comb = (1.0 - alphas) * t + alphas * s
                vals = p * np.array([d_scalar(t, c) for c in comb]) / alphas ** p
                grid_sup = max(grid_sup, float(np.max(vals)))
        est = fd.probe_curvature(spec, gamma=p, n_samples=400, seed=5)
        # sampled estimate stays below the dense-grid sup, and both respect
        # the Holder-gradient bound C <= L * diameter^p with L = 2^(2-p)
        assert est.c_hat <= grid_sup * (1.0 + 1e-9)
        assert est.c_hat >= 0.5 * grid_sup
        analytic = 2.0 ** (2.0 - p) * 2.0 ** p
        assert grid_sup <= analytic + 1e-9


class TestTraceCurvature:
    def test_primal_side_below_global_constant(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 50)
        c = fd.curvature_along_trace(tr, spec, 2.0)
        assert 0.0 < c <= 2.0 + 1e-9

    def test_hybrid_returns_both_sides(self):
        spec = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
        x0 = np.array([1.0, 0.0, 0.0])
        tr = fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 30)
        cp, cd = fd.curvature_along_trace(tr, spec, 2.0)
        assert cp > 0.0 and cd > 0.0


# inf and 1e308 underflow alpha^gamma to 0 on the probe grid; at 105 it stays
# positive (subnormal) and the ratio overflows instead
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [np.inf, 1e308, 105.0])
def test_non_finite_estimate_is_range_error(gamma):
    spec = fd.make_quadratic_simplex(n=2)
    tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 10)
    with pytest.raises(fd.RangeError):
        fd.curvature_along_trace(tr, spec, gamma)
    with pytest.raises(fd.RangeError):
        fd.probe_curvature(spec, gamma, n_samples=20)


class TestFitRate:
    def test_harmonic_decay(self):
        k = np.arange(1, 1001)
        exponent, r2 = fd.fit_rate(4.0 / (k + 2.0))
        assert exponent == pytest.approx(-1.0, abs=0.02)
        assert r2 > 0.999

    def test_constant_gap(self):
        exponent, r2 = fd.fit_rate(np.full(100, 0.7))
        assert exponent == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_exact_power_law(self):
        k = np.arange(1, 500)
        exponent, _ = fd.fit_rate(k**-0.5)
        assert exponent == pytest.approx(-0.5, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(fd.FitError):
            fd.fit_rate(np.ones(12))

    def test_accepts_trace(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 200)
        exponent, r2 = fd.fit_rate(tr)
        assert exponent < -0.8
