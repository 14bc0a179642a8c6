"""Weight rows, step divergences, gap recursions, the run's certificate
aggregate, and the exact identity residuals, each cross-checked against an
independent recomputation."""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fenchelduo as fd
from fenchelduo.certificates import _decayed_sums

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

    @pytest.mark.parametrize("rule", [fd.FixedHarmonic(), fd.ExactLineSearch()],
                             ids=["fixed_harmonic", "exact_ls"])
    @pytest.mark.parametrize("spec", [
        fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1])),
        fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1])),
    ], ids=["quadratic-simplex", "entropy-lse"])
    def test_certificate_is_lower_valued_candidate(self, spec, rule):
        """at every k, the dual column is the value of the lambda-weighted
        average of u_1..u_k or of the first u_i of least value, whichever is
        lower, and the final certificate is that point"""
        trace = fd.run_gcs(spec, np.eye(3)[0], rule, 50)
        us = [spec.f_grad(x) for x in trace.xs[:-1]]

        def value(u):
            return float(spec.f_conj_val(u)) + float(spec.h_conj_val(-u))

        values = [value(u) for u in us]
        for k in range(1, trace.k + 1):
            lam, _ = fd.weight_rows(trace.alphas[:k])
            average = np.sum(lam[:, None] * np.array(us[:k]), axis=0)
            first = int(np.argmin(values[:k]))
            avg_value, best_value = value(average), values[first]
            want = min(avg_value, best_value)
            assert -trace.dual[k - 1] == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert trace.true_gap[k - 1] == trace.primal[k - 1] - trace.dual[k - 1]
        assert value(trace.certificate) == pytest.approx(want, rel=1e-12, abs=1e-12)
        if best_value < avg_value - 1e-9:  # apart by more than rounding: the point too
            np.testing.assert_array_equal(trace.certificate, us[first])
        elif avg_value < best_value - 1e-9:
            np.testing.assert_allclose(trace.certificate, average, rtol=1e-12, atol=1e-12)

    def test_both_candidates_are_chosen(self):
        """the choice is made at every k: on this run the dual value is the
        best u_k's at 35 of the k > 1 and the lower one of the average at 14"""
        spec = fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1]))
        trace = fd.run_gcs(spec, np.eye(3)[0], fd.ExactLineSearch(), 50)
        values = np.minimum.accumulate([float(spec.f_conj_val(u) + spec.h_conj_val(-u))
                                        for u in map(spec.f_grad, trace.xs[:-1])])
        at_best = -np.asarray(trace.dual) == values
        assert (int(at_best[1:].sum()), int((~at_best[1:]).sum())) == (35, 14)

    def test_single_iterate(self):
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_gcs(spec, [0.25, 0.75], fd.FixedHarmonic(), 1)
        np.testing.assert_array_equal(trace.certificate, [0.25, 0.75])


REPLAYS = {"gcs": fd.cg_identity_residuals, "gmd": fd.md_identity_residuals,
           "hybrid": fd.hybrid_identity_residuals}


def _trace_of(algo):
    spec = fd.make_quadratic_simplex(n=2)
    if algo == "gcs":
        return spec, fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 3)
    if algo == "gmd":
        return spec, fd.run_gmd(spec, np.zeros(2), fd.FixedHarmonic(), 3)
    if algo == "hybrid":
        return spec, fd.run_hybrid(spec, [1.0, 0.0], [1.0, 0.0], fd.FixedHarmonic(), 3)
    spec, trace = _trace_of("gcs")
    return spec, replace(trace, algo=algo)


@pytest.mark.parametrize("replay", sorted(REPLAYS))
@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid", "bfgs"])
def test_replay_takes_only_its_drivers_trace(replay, algo):
    """each replay reads one driver's histories: another driver's trace, or
    one of an unknown algo, is a StateError, not a residual or a numpy error"""
    spec, trace = _trace_of(algo)
    if algo == replay:
        assert float(np.max(REPLAYS[replay](trace, spec))) <= 1e-12
        return
    with pytest.raises(fd.StateError,
                       match=f"^{REPLAYS[replay].__name__} needs a {replay} trace, got '{algo}'$"):
        REPLAYS[replay](trace, spec)


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
        # negative control: a sign error in the dual values must break the identity
        spec = fd.make_quadratic_simplex(n=2)
        trace = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 10)
        assert float(np.max(fd.cg_identity_residuals(trace, spec))) <= 1e-12
        flipped = replace(spec, h_conj_val=lambda w: spec.h_conj_val(-w))
        assert float(np.max(fd.cg_identity_residuals(trace, flipped))) > 1e-3

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

    @pytest.mark.parametrize("algo", ["gmd", "hybrid"])
    def test_dual_side_replay_errors_name_the_users_oracle(self, algo):
        # a healthy run replayed against a spec whose f* is +inf off the
        # iterates: the error names f_conj_val, not the dual spec's h_val
        spec = fd.make_holder_power_simplex(1.5, 3)
        if algo == "gmd":
            trace = fd.run_gmd(spec, np.zeros(3), fd.FixedHarmonic(), 10, mode="sharp")
            iterates, replay = [-v for v in trace.vs], fd.md_identity_residuals
        else:
            x0 = spec.h_conj_grad(np.zeros(3))
            trace = fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 10,
                                  mode="sharp")
            iterates, replay = trace.us, fd.hybrid_identity_residuals
        assert trace.error is None
        assert float(np.max(replay(trace, spec))) <= 1e-12
        keep = {u.tobytes() for u in iterates}

        def f_conj_val(u):
            u = np.asarray(u, dtype=float)
            return spec.f_conj_val(u) if u.tobytes() in keep else math.inf

        with pytest.raises(fd.InfiniteValue,
                           match=r"^oracle f_conj_val returned \+inf at the \w+ point of a step$"):
            replay(trace, replace(spec, f_conj_val=f_conj_val))

    @pytest.mark.parametrize("algo, history", [("gcs", "xs"), ("gmd", "vs"), ("hybrid", "xs"),
                                               ("hybrid", "us")])
    def test_tampered_iterate_is_a_state_error(self, algo, history):
        # x_7 (or u_7, v_7) moved inside the domain: not the step from x_6 toward s_6
        spec = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
        x0 = np.array([1.0, 0.0, 0.0])
        trace, replay = {
            "gcs": (lambda: fd.run_gcs(spec, x0, fd.FixedHarmonic(), 20),
                    fd.cg_identity_residuals),
            "gmd": (lambda: fd.run_gmd(spec, np.zeros(3), fd.FixedHarmonic(), 20),
                    fd.md_identity_residuals),
            "hybrid": (lambda: fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 20),
                       fd.hybrid_identity_residuals),
        }[algo]
        trace = trace()
        assert float(np.max(replay(trace, spec))) <= 1e-12
        getattr(trace, history)[7] = getattr(trace, history)[7] + np.array([1e-6, -1e-6, 0.0])
        with pytest.raises(fd.StateError, match=r"^row 7: the recorded iterate is not the step "
                                                r"from the one before toward its oracle target "
                                                r"\(defect 1\.000e-06\)$"):
            replay(trace, spec)

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_trace_of_another_spec_is_a_state_error(self, algo):
        # the oracle targets of another tilt are not the steps this run took
        spec = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
        other = fd.make_entropy_lse(3, b=np.array([-0.1, 0.2, 0.0]))
        x0 = np.array([1.0, 0.0, 0.0])
        trace, replay = {
            "gcs": (fd.run_gcs(spec, x0, fd.FixedHarmonic(), 20), fd.cg_identity_residuals),
            "gmd": (fd.run_gmd(spec, np.zeros(3), fd.FixedHarmonic(), 20),
                    fd.md_identity_residuals),
            "hybrid": (fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 20),
                       fd.hybrid_identity_residuals),
        }[algo]
        with pytest.raises(fd.StateError, match=r"^row 1: the recorded iterate is not the step"):
            replay(trace, other)

    @pytest.mark.parametrize("algo, role", [
        ("gcs", "f_conj_val"), ("gcs", "f_val"), ("gcs", "h_conj_val"),
        ("gmd", "f_val"), ("gmd", "h_val"), ("hybrid", "f_val")])
    def test_infinite_value_at_a_recorded_iterate_is_named(self, algo, role):
        # a healthy 5-step trace replayed against a spec whose oracle ``role``
        # is +inf everywhere; the replay reaches it first at a recorded iterate
        spec = fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1]))
        x0 = spec.h_conj_grad(np.zeros(3))
        if algo == "gcs":
            trace, replay = fd.run_gcs(spec, x0, fd.FixedHarmonic(), 5), fd.cg_identity_residuals
        elif algo == "gmd":
            trace = fd.run_gmd(spec, np.zeros(3), fd.FixedHarmonic(), 5)
            replay = fd.md_identity_residuals
        else:
            trace = fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 5)
            replay = fd.hybrid_identity_residuals
        assert trace.error is None
        with pytest.raises(fd.InfiniteValue,
                           match=rf"^oracle {role} returned \+inf at a recorded iterate$"):
            replay(trace, replace(spec, **{role: lambda *args: math.inf}))


def brute_weighted_sums(alphas, terms):
    """Every k's mu-weighted sum of ``terms`` from the literal row recursion:
    scale the old row by (1 - alpha), append 1, take the dot product (O(K^2))."""
    mu, out = np.empty(0), np.empty(len(alphas))
    for k, a in enumerate(alphas):
        mu = np.append((1.0 - a) * mu, 1.0)
        out[k] = mu @ terms[:k + 1]
    return out


def alpha_sequence(kind):
    rng = np.random.default_rng(7)
    k = np.arange(1.0, 10000.0)
    tail = {
        "one-mid-run": np.concatenate([np.full(150, 0.3), [1.0], 2.0 / (k[:300] + 2.0)]),
        "zero-runs": np.where(np.arange(2000) % 100 < 60, 0.0, 0.05),
        "zeros-and-ones": rng.integers(0, 2, 1000).astype(float),
        "near-one": np.full(600, 1.0 - 1e-12),
        "harmonic": 2.0 / (k + 2.0),
        "random": rng.random(k.size),
    }[kind]
    return np.concatenate([[1.0], tail])


def exact_weighted_sums(alphas, terms):
    """Every k's mu-weighted sum of ``terms`` from s_k = (1 - alpha_k) s_{k-1} + t_k in
    exact rational arithmetic."""
    s, out = Fraction(0), []
    for a, t in zip(alphas, terms):
        s = (1 - Fraction(a)) * s + Fraction(t)
        out.append(s)
    return out


@st.composite
def weighted_sum_cases(draw):
    # alpha_0 = 1, then full, zero, nearly full or any steps; one or two rows of terms
    step = st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 2.0 ** -40]), st.floats(0.0, 1.0))
    alphas = [1.0] + draw(st.lists(step, max_size=199))
    row = st.lists(st.floats(-1e6, 1e6), min_size=len(alphas), max_size=len(alphas))
    return alphas, draw(st.lists(row, min_size=1, max_size=2))


class TestClosedFormReplay:
    """The replay's weighted-sum recursion against the explicit weight rows of every k,
    and against exact rational arithmetic."""

    @pytest.mark.parametrize("kind", ["one-mid-run", "zero-runs", "zeros-and-ones", "near-one",
                                      "harmonic", "random"])
    def test_matches_row_recursion(self, kind):
        alphas = alpha_sequence(kind)
        if kind == "near-one":  # C_k falls below 1e-308 within a few dozen steps
            assert np.prod(1.0 - alphas[1:30]) < 1e-308
        rng = np.random.default_rng(len(alphas))
        terms = rng.standard_normal((2, len(alphas))) + np.array([[3.0], [-0.5]])
        rows = _decayed_sums(alphas, *terms)
        assert rows.shape == terms.shape and np.all(np.isfinite(rows))
        for got, t in zip(rows, terms):
            want, scale = brute_weighted_sums(alphas, t), brute_weighted_sums(alphas, np.abs(t))
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @settings(derandomize=True, database=None, deadline=None)
    @given(weighted_sum_cases())
    def test_matches_exact_recursion(self, case):
        alphas, terms = case
        rows = _decayed_sums(alphas, *map(np.array, terms))
        assert rows.shape == (len(terms), len(alphas))
        for got, t in zip(rows, terms):
            want, scale = exact_weighted_sums(alphas, t), exact_weighted_sums(alphas, map(abs, t))
            assert all(abs(Fraction(g) - w) <= Fraction(1e-13) * c
                       for g, w, c in zip(got.tolist(), want, scale))

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_replay_across_full_and_zero_steps(self, algo):
        # alpha = 1 in mid-run starts the sums afresh, alpha = 0 carries them unchanged
        spec = fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1]))
        k = np.arange(1.0, 30.0)
        rule = Schedule(tuple(np.concatenate([[1.0], np.full(15, 0.3), [1.0], np.zeros(10),
                                              2.0 / (k + 2.0)])))
        x0 = spec.h_conj_grad(np.zeros(3))
        trace, replay = {
            "gcs": (lambda: fd.run_gcs(spec, x0, rule, 55), fd.cg_identity_residuals),
            "gmd": (lambda: fd.run_gmd(spec, np.zeros(3), rule, 55), fd.md_identity_residuals),
            "hybrid": (lambda: fd.run_hybrid(spec, x0, spec.f_grad(x0), rule, 55),
                       fd.hybrid_identity_residuals),
        }[algo]
        trace = trace()
        assert trace.error is None and list(trace.alphas) == list(rule.alphas[:55])
        assert float(np.max(replay(trace, spec))) <= 1e-12

    @pytest.mark.parametrize("alphas", [[], [0.9, 0.5], [1.0, 1.5], [1.0, -0.25], [1.0, math.nan]])
    def test_rejects_step_sizes_without_a_full_first_step_or_outside_unit_interval(self, alphas):
        # the identities hold for convex weights, 0 <= alpha <= 1; weight_rows takes any alphas
        with pytest.raises(fd.StateError, match=r"^identity residuals require alpha_0 = 1 "
                                                r"and every alpha in \[0, 1\]$"):
            _decayed_sums(alphas, np.ones(len(alphas)))
