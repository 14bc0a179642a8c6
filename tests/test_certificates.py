"""Weight rows, step divergences, gap recursions, the run's certificate
aggregate, and the exact identity residuals, each cross-checked against an
independent recomputation."""

from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

import fenchelduo as fd

mpmath.mp.dps = 50


def brute_weight_rows(alphas):
    """Literal recursion: append (alpha, 1), scale older entries by (1-alpha)."""
    lam, mu = [], []
    for a in alphas:
        lam = [(1.0 - a) * v for v in lam] + [a]
        mu = [(1.0 - a) * v for v in mu] + [1.0]
    return np.array(lam), np.array(mu)


def loop_weight_rows(alphas):
    """Running product from the last step back, one factor at a time."""
    a = np.asarray(alphas, dtype=float)
    mu = np.ones(len(a))
    running = 1.0
    for i in range(len(a) - 1, -1, -1):
        mu[i] = running
        running *= 1.0 - a[i]
    return a * mu, mu


class TestWeights:
    @pytest.mark.parametrize("alphas,lam,mu", [
        ([1.0, 0.5], [0.5, 0.5], [0.5, 1.0]),
        ([1.0, 2.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0], [1.0 / 3.0, 1.0]),
        ([1.0, 2.0 / 3.0, 0.5], [1.0 / 6.0, 1.0 / 3.0, 0.5], [1.0 / 6.0, 0.5, 1.0]),
    ])
    def test_hand_rows(self, alphas, lam, mu):
        got_l, got_m = fd.weight_rows(alphas)
        np.testing.assert_allclose(got_l, lam, rtol=1e-15)
        np.testing.assert_allclose(got_m, mu, rtol=1e-15)
        brute_l, brute_m = brute_weight_rows(alphas)
        np.testing.assert_allclose(brute_l, got_l, rtol=1e-15)
        np.testing.assert_allclose(brute_m, got_m, rtol=1e-15)
        assert float(np.sum(got_l)) == pytest.approx(1.0, abs=1e-15)

    def test_matches_brute_recursion_random(self):
        rng = np.random.default_rng(0)
        alphas = [1.0] + list(rng.random(60))
        lam_b, mu_b = brute_weight_rows(alphas)
        lam, mu = fd.weight_rows(alphas)
        np.testing.assert_allclose(lam, lam_b, rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(mu, mu_b, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("kind", ["random", "small", "harmonic", "zeros-and-ones"])
    def test_matches_running_product_loop_bit_for_bit(self, kind):
        rng = np.random.default_rng(3)
        k = np.arange(1.0, 4000.0)
        tail = {"random": rng.random(k.size), "small": 0.01 * rng.random(k.size),
                "harmonic": 2.0 / (k + 2.0),
                "zeros-and-ones": rng.integers(0, 2, k.size).astype(float)}[kind]
        for n in (0, 1, 2, 17, 4000):
            alphas = np.concatenate([[1.0], tail])[:n]
            lam, mu = fd.weight_rows(alphas)
            lam_loop, mu_loop = loop_weight_rows(alphas)
            assert lam.tobytes() == lam_loop.tobytes() and mu.tobytes() == mu_loop.tobytes()


class TestStepDivergencePrimal:
    def setup_method(self):
        self.spec = fd.make_quadratic_simplex(n=2)
        self.e1 = np.array([1.0, 0.0])
        self.e2 = np.array([0.0, 1.0])

    def test_full_step(self):
        assert fd.step_divergence_primal(self.e1, self.e2, 1.0, self.spec) == 1.0

    def test_zero_step(self):
        assert fd.step_divergence_primal(self.e1, self.e2, 0.0, self.spec) == 0.0

    def test_half_step(self):
        got = fd.step_divergence_primal(self.e1, self.e2, 0.5, self.spec)
        assert got == pytest.approx(0.25, abs=0)

    def test_infinite_h_term(self):
        with pytest.raises(fd.InfiniteValue):
            fd.step_divergence_primal(np.array([2.0, 0.0]), self.e2, 0.5, self.spec)

    def test_full_step_skips_base_h(self):
        # alpha = 1 must not evaluate (1-alpha) * h(x) when h(x) = +inf
        got = fd.step_divergence_primal(np.array([2.0, 0.0]), self.e2, 1.0, self.spec)
        assert got == pytest.approx(fd.bregman_f(self.e2, np.array([2.0, 0.0]), self.spec))

    def test_never_exceeds_bregman_term(self):
        rng = np.random.default_rng(8)
        spec = fd.make_entropy_lse(3)
        for _ in range(200):
            x = rng.dirichlet(np.ones(3))
            s = fd.softmax(rng.standard_normal(3))
            a = rng.random()
            div = fd.step_divergence_primal(x, s, a, spec)
            breg = fd.bregman_f((1 - a) * x + a * s, x, spec)
            assert div <= breg + 1e-12


class TestStepDivergenceDual:
    def test_all_zero_case(self):
        dual = fd.dualize(fd.make_entropy_lse(2))
        for a in (0.0, 0.3, 1.0):
            assert fd.step_divergence_primal(np.zeros(2), np.zeros(2), a, dual) == pytest.approx(
                0.0, abs=1e-15)

    def test_zero_alpha(self):
        dual = fd.dualize(fd.make_entropy_lse(2))
        got = fd.step_divergence_primal(np.array([1.0, 0.0]), np.array([0.3, -0.2]), 0.0, dual)
        assert got == 0.0

    def test_lse_quadratic_case_against_high_precision(self):
        # v = (1,0), z = 0, alpha = 1: the value reduces to the h*-side
        # Bregman distance D((0,0), (1,0)) = log 2 - lse(1,0) + e/(1+e).
        # (An approximate decimal elsewhere quotes 0.10651 for this quantity;
        # the exact expression evaluates to 0.110944...)
        dual = fd.dualize(fd.make_entropy_lse(2))
        got = fd.step_divergence_primal(np.array([1.0, 0.0]), np.zeros(2), 1.0, dual)
        e = mpmath.e
        want = float(mpmath.log(2) - mpmath.log(1 + e) + e / (1 + e))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.110944, abs=5e-6)


def run_hand_gcs(spec, x0, alphas):
    """Independent re-execution of the primal iteration for given step sizes."""
    x = np.asarray(x0, dtype=float)
    A, At = spec.linmap.apply, spec.linmap.adjoint
    xs, us, ss = [x.copy()], [], []
    for a in alphas:
        u = spec.f_grad(A(x))
        s = spec.h_conj_grad(-At(u))
        us.append(u)
        ss.append(s)
        x = (1.0 - a) * x + a * s
        xs.append(x.copy())
    return xs, us, ss


@dataclass(frozen=True)
class Schedule(fd.StepRule):
    """Replays a fixed step-size list."""

    alphas: tuple = ()

    def select(self, k, gap, d_fun):
        return self.alphas[k]


class TestGapState:
    def test_hand_recursion(self):
        spec = fd.make_quadratic_simplex(n=2)
        alphas = (1.0, 2.0 / 3.0)
        trace = fd.run_gcs(spec, [1.0, 0.0], Schedule(alphas), 2)
        xs, _, _ = run_hand_gcs(spec, [1.0, 0.0], alphas)
        for got, want in zip(trace.xs, xs):
            np.testing.assert_array_equal(got, want)
        assert trace.gap_plain[0] == 1.0
        assert trace.gap_plain[1] == pytest.approx(7.0 / 9.0, rel=1e-15)
        # indicator h makes the sharpened recursion coincide with the plain one
        assert trace.gap_sharp[1] == pytest.approx(trace.gap_plain[1], abs=1e-15)

    def test_zero_step_keeps_gap(self):
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_gcs(spec, [1.0, 0.0], Schedule((1.0, 0.0)), 2)
        assert trace.gap_plain[1] == trace.gap_plain[0]

    def test_sharp_below_plain_on_entropy(self):
        spec = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
        trace = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.FixedHarmonic(), 100)
        gp, gs = np.asarray(trace.gap_plain), np.asarray(trace.gap_sharp)
        assert np.all(gs <= gp + 1e-12)
        assert np.any(gs < gp - 1e-12)


class TestAggregates:
    """The run's certificate against a recomputation from its recorded history."""

    @pytest.mark.parametrize("spec", [
        fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1])),
        fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1])),
    ], ids=["quadratic-simplex", "entropy-lse"])
    def test_average_is_lambda_weighted_sum(self, spec):
        trace = fd.run_gcs(spec, np.eye(3)[0], fd.ExactLineSearch(), 50, policy="average")
        lam, _ = fd.weight_rows(trace.alphas)
        want = np.sum(lam[:, None] * np.array(trace.us), axis=0)
        np.testing.assert_allclose(trace.certificate, want, rtol=1e-12, atol=1e-12)

    def test_single_iterate(self):
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_gcs(spec, [0.25, 0.75], fd.FixedHarmonic(), 1)
        np.testing.assert_array_equal(trace.certificate, [0.25, 0.75])

    @pytest.mark.parametrize("rule", [fd.FixedHarmonic(), fd.ExactLineSearch()],
                             ids=["fixed_harmonic", "exact_ls"])
    def test_best_is_first_least_dual_value(self, rule):
        spec = fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1]))
        trace = fd.run_gcs(spec, np.eye(3)[0], rule, 40, policy="best")
        values = [float(spec.f_conj_val(u)) + float(spec.h_conj_val(-u)) for u in trace.us]
        first = int(np.argmin(values))
        np.testing.assert_array_equal(trace.certificate, trace.us[first])
        assert -trace.dual[-1] == values[first]


class TestIdentityResiduals:
    def test_first_iteration_hand_value(self):
        # lambda*(f*(u0) + h*(-u0)) - mu*divergence + primal(x1) = 1/2 - 1 + 1/2
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 1)
        assert fd.cg_identity_residuals(trace, spec)[0] == pytest.approx(0.0, abs=1e-15)

    def test_hybrid_first_iteration_hand_value(self):
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_hybrid(spec, [1.0, 0.0], [1.0, 0.0], fd.FixedHarmonic(), 1)
        x, u = trace.xs[1], trace.us[1]
        gap = spec.f_val(x) + spec.h_val(x) + spec.f_conj_val(u) + spec.h_conj_val(-u)
        assert gap == pytest.approx(1.0, abs=0)
        assert fd.hybrid_identity_residuals(trace, spec)[0] == pytest.approx(0.0, abs=1e-15)

    def test_requires_full_first_step(self):
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 5)
        trace.alphas[0] = 0.9
        with pytest.raises(fd.StateError):
            fd.cg_identity_residuals(trace, spec)

    def test_sign_error_is_detected(self):
        # negative control: corrupting the dual iterates must break the identity
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 10)
        assert float(np.max(fd.cg_identity_residuals(trace, spec))) <= 1e-12
        trace.us = [-u for u in trace.us]
        assert float(np.max(fd.cg_identity_residuals(trace, spec))) > 1e-3

    def test_streaming_residual_agrees_with_recomputation(self):
        spec = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
        trace = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.FixedHarmonic(), 60)
        recomputed = fd.cg_identity_residuals(trace, spec)
        for k in (1, 7, 33, 60):
            assert recomputed[k - 1] <= 1e-10 and trace.residual[k - 1] <= 1e-10

    def test_md_identity_on_all_kinds(self):
        rng = np.random.default_rng(2)
        for spec in (fd.make_quadratic_simplex(n=2),
                     fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1])),
                     fd.make_quadratic_simplex(Q=np.eye(4), b=rng.standard_normal(4),
                                               n=3, a=fd.random_linear_map(4, 3, rng))):
            trace = fd.run_gmd(spec, np.zeros(spec.dim_y), fd.FixedHarmonic(), 40)
            assert trace.error is None
            assert float(np.max(fd.md_identity_residuals(trace, spec))) <= 1e-12
