"""Curvature probes against enumeration/dense-grid oracles, and rate fits on
synthetic decay data."""

from dataclasses import replace

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

    def test_line_that_fails_keeps_its_earlier_ratios(self):
        # f = +inf near every vertex, so each probe line toward its LMO vertex
        # fails before alpha = 1: the line counts once as skipped, and the
        # ratios before the failure (|s - x|^2 all along, for this f) still count
        spec = fd.make_quadratic_simplex(n=3)
        walled = replace(spec, breg_f=None,
                         f_val=lambda y: np.inf if np.max(y) > 0.999 else spec.f_val(y))
        clean = fd.probe_curvature(spec, gamma=2.0, n_samples=50, seed=4)
        est = fd.probe_curvature(walled, gamma=2.0, n_samples=50, seed=4)
        assert (clean.skipped, est.skipped) == (0, 50)
        assert 0.0 < est.c_hat <= clean.c_hat * (1 + 1e-12)
        assert est.witness["alpha"] < 1.0

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match=f"n_samples must be at least 1, got {n_samples}"):
            fd.probe_curvature(spec, 2.0, n_samples=n_samples)

    @pytest.mark.parametrize("n_samples", [2.5, 3.0, True, "3", None],
                             ids=["2.5", "3.0", "True", "str", "None"])
    def test_rejects_non_integer_sample_count(self, n_samples):
        # True would run one probe and report samples=True
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="^n_samples must be an integer, got "):
            fd.probe_curvature(spec, 2.0, n_samples=n_samples)

    def test_accepts_numpy_integer_sample_count(self):
        spec = fd.make_quadratic_simplex(n=2)
        want = fd.probe_curvature(spec, 2.0, n_samples=5, seed=2)
        for n_samples in (np.int64(5), np.int32(5), np.uint8(5)):
            got = fd.probe_curvature(spec, 2.0, n_samples=n_samples, seed=2)
            assert (got.c_hat, got.samples, got.skipped) == (want.c_hat, 5, want.skipped)

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


_GRID = np.geomspace(1e-3, 1.0, 64)


def _literal_line_sup(side, x, s, gamma):
    """sup over the probe grid of gamma D(a) / a^gamma on the line from x toward
    s, each D an uncached bregman_f; with its witness step size"""
    A = side.linmap.apply
    c, at = 0.0, None
    for a in _GRID:
        ratio = gamma * fd.bregman_f(A((1.0 - a) * x + a * s), A(x), side) / float(a ** gamma)
        if ratio > c:
            c, at = ratio, float(a)
    return c, at


def _flaky_holder():
    # Hölder with a random A, no closed forms; its f' fails where the image has y_0 > 0
    rng = np.random.default_rng(7)
    spec = fd.make_holder_power_simplex(1.5, 3, a=fd.random_linear_map(4, 3, rng))

    def f_grad(y):
        if y[0] > 0.0:
            raise ValueError("outside the gradient's range")
        return spec.f_grad(y)

    return spec, replace(spec, f_grad=f_grad)


def _holder_run(spec, algo):
    # a 20-step run of ``algo`` on the Hölder spec of _flaky_holder
    x0 = spec.h_conj_grad(np.zeros(3))
    if algo == "gcs":
        return fd.run_gcs(spec, x0, fd.FixedHarmonic(), 20)
    if algo == "gmd":
        return fd.run_gmd(spec, np.zeros(4), fd.FixedHarmonic(), 20)
    return fd.run_hybrid(spec, x0, spec.f_grad(spec.linmap.apply(x0)), fd.FixedHarmonic(), 20)


class TestLiteralBregmanLoop:
    """``_ratios`` reads f and f' at a line's base once; the estimates are those of
    a per-step-size bregman_f loop, bit for bit, and a failing oracle still
    skips the sample"""

    @pytest.mark.parametrize("flaky", [False, True], ids=["holder", "holder-failing-f_grad"])
    def test_probe_curvature(self, flaky):
        clean, failing = _flaky_holder()
        spec = failing if flaky else clean
        gamma = 1.5
        rng = np.random.default_rng(3)
        c_hat, witness_alpha, skipped = 0.0, None, 0
        for i in range(60):
            x = spec.sample_x(rng)
            v = rng.standard_normal(3) * (0.1, 1.0, 10.0)[i % 3]
            try:
                c, at = _literal_line_sup(spec, x, spec.h_conj_grad(v), gamma)
            except fd.FenchelDuoError:
                skipped += 1
                continue
            if c > c_hat:
                c_hat, witness_alpha = c, at
        est = fd.probe_curvature(spec, gamma, n_samples=60, seed=3)
        assert np.float64(est.c_hat).tobytes() == np.float64(c_hat).tobytes()
        assert (est.witness["alpha"], est.skipped) == (witness_alpha, skipped)
        assert (skipped > 0) == flaky

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_curvature_along_trace(self, algo):
        spec, _ = _flaky_holder()
        tr = _holder_run(spec, algo)
        dual = fd.dualize(spec)

        def sup(side, lines):
            return max(_literal_line_sup(side, x, side.h_conj_grad(-side.linmap.adjoint(u)),
                                         2.0)[0] for x, u in lines)

        if algo == "gcs":
            want = sup(spec, ((x, spec.f_grad(spec.linmap.apply(x))) for x in tr.xs[:-1]))
        elif algo == "gmd":
            want = sup(dual, ((v, dual.f_grad(dual.linmap.apply(v))) for v in tr.vs[:-1]))
        else:
            pairs = list(zip(tr.xs[:-1], tr.us[:-1]))
            want = (sup(spec, pairs), sup(dual, ((-u, x) for x, u in pairs)))
        got = fd.curvature_along_trace(tr, spec, 2.0)
        assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def _counting(spec):
    """``spec`` whose linear map and oracles count their calls."""
    counts = {}

    def counted(name, fn):
        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return call

    linmap = replace(spec.linmap, apply=counted("apply", spec.linmap.apply),
                     adjoint=counted("adjoint", spec.linmap.adjoint))
    names = ("f_val", "f_grad", "f_conj_val", "h_val", "h_conj_val", "h_conj_grad")
    return replace(spec, linmap=linmap, **{n: counted(n, getattr(spec, n)) for n in names}), counts


@pytest.mark.parametrize("algo, want", [
    ("gcs", {"apply": 1300, "adjoint": 20, "f_val": 1300, "f_grad": 20, "h_conj_grad": 20}),
    ("gmd", {"apply": 20, "adjoint": 1300, "h_conj_val": 1300, "f_grad": 20, "h_conj_grad": 20}),
    ("hybrid", {"apply": 1300, "adjoint": 1300, "f_val": 1300, "h_conj_val": 1300, "f_grad": 20,
                "h_conj_grad": 20}),
])
def test_curvature_along_trace_reads_each_step_once(algo, want):
    """a step reads f'(A x) and (h*)'(-A* u) once, which hybrid's two lines
    share; a line takes 65 products, A x and its 64 probe images, with A on the
    primal side and with A* on the dual side (gmd's line, hybrid's second)"""
    spec, _ = _flaky_holder()
    tr = _holder_run(spec, algo)
    counted, counts = _counting(spec)
    fd.curvature_along_trace(tr, counted, 1.5)
    assert counts == want


class TestTraceCurvature:
    def test_primal_side_below_global_constant(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 50)
        c = fd.curvature_along_trace(tr, spec, 2.0)
        assert 0.0 < c <= 2.0 + 1e-9

    def test_unknown_algo_is_range_error(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = replace(fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 5), algo="bfgs")
        with pytest.raises(fd.RangeError, match="unknown trace algo 'bfgs'"):
            fd.curvature_along_trace(tr, spec, 2.0)

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
