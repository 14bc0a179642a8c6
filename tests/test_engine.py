"""Engine behavior: exact hand-traced iterates, update-rule equivalences,
stopping, aborts, and the certified-gap sandwich."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import fenchelduo as fd


@dataclass(frozen=True)
class FreezeAfterFirst(fd.StepRule):
    """Full first step, then alpha = 0 forever."""

    is_schedule = True

    def select(self, k, gap, d_fun):
        return 1.0 if k == 0 else 0.0


@dataclass(frozen=True)
class OvershootAtTwo(fd.StepRule):
    """The 2/(k+2) schedule, except alpha = 1.5 at k = 2."""

    def select(self, k, gap, d_fun):
        return 1.5 if k == 2 else 2.0 / (k + 2.0)


def tilted_entropy():
    return fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))


class TestConditionalSubgradient:
    def test_hand_iterates(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 3)
        np.testing.assert_array_equal(tr.xs[1], [0.0, 1.0])
        np.testing.assert_allclose(tr.xs[2], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
        np.testing.assert_allclose(tr.xs[3], [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_hand_certificate_and_gap(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 2)
        np.testing.assert_allclose(tr.certificate, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
        assert tr.true_gap[1] == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert tr.gap_plain[1] == pytest.approx(7.0 / 9.0, rel=1e-15)

    def test_zero_steps_freeze_iterate(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], FreezeAfterFirst(), 8)
        for x in tr.xs[1:]:
            np.testing.assert_array_equal(x, tr.xs[1])
        assert tr.gap_plain == pytest.approx([tr.gap_plain[0]] * 8)

    def test_update_matches_closed_form_exactly(self):
        # identity-A composite update: x+ = (1-a)x + a*(h*)'(-f'(x)), bitwise
        spec = tilted_entropy()
        tr = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.FixedHarmonic(), 20)
        for k in range(20):
            x = tr.xs[k]
            a = tr.alphas[k]
            want = (1.0 - a) * x + a * spec.h_conj_grad(-spec.f_grad(x))
            np.testing.assert_array_equal(tr.xs[k + 1], want)

    def test_trace_has_one_row_for_kmax_one(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 1)
        assert tr.k == 1 and tr.alphas == [1.0]

    def test_epsilon_stops_early(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.ExactLineSearch(), 1000, epsilon=1e-2)
        assert tr.k < 1000
        assert tr.gap_bound[-1] < 1e-2

    def test_best_policy_tracks_running_argmin(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 50, policy="best")
        At = spec.linmap.adjoint
        vals = [spec.f_conj_val(u) + spec.h_conj_val(-At(u)) for u in tr.us]
        assert -tr.dual[-1] == pytest.approx(min(vals), rel=1e-15)


class TestMirrorDescent:
    def test_symmetric_start_is_fixed_point(self):
        # f = 0.5||.||^2, v0 = 0: the mirror point starts at the optimum and
        # the shift invariance of softmax keeps it there
        spec = fd.make_entropy_lse(2)
        tr = fd.run_gmd(spec, np.zeros(2), fd.FixedHarmonic(), 3)
        np.testing.assert_allclose(tr.ys[0], [0.5, 0.5], rtol=1e-15)
        np.testing.assert_allclose(tr.vs[1], [-0.5, -0.5], rtol=1e-15)
        np.testing.assert_allclose(tr.ys[1], [0.5, 0.5], rtol=1e-15)
        assert tr.gap_plain[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_subgradient_fixed_point(self):
        spec = fd.make_entropy_lse(2, Q=np.zeros((2, 2)))
        tr = fd.run_gmd(spec, np.zeros(2), fd.FixedHarmonic(), 4)
        for v in tr.vs:
            np.testing.assert_array_equal(v, np.zeros(2))

    def test_update_matches_conjugate_form(self):
        # y+ = (h*)'((1-a) dh(y) - a f'(y)) with dh(y) the certificate of y
        spec = tilted_entropy()
        tr = fd.run_gmd(spec, np.array([0.5, -0.2, 0.1]), fd.FixedHarmonic(), 25)
        for k in range(1, 25):
            v, y, z, a = tr.vs[k], tr.ys[k], tr.zs[k], tr.alphas[k]
            want = spec.h_conj_grad((1.0 - a) * v - a * spec.f_grad(y))
            np.testing.assert_allclose(tr.ys[k + 1] if k + 1 < len(tr.ys) else
                                       spec.h_conj_grad(spec.linmap.adjoint(tr.vs[k + 1])),
                                       want, rtol=1e-9, atol=1e-12)

    def test_primal_column_uses_aggregate(self):
        spec = tilted_entropy()
        tr = fd.run_gmd(spec, np.zeros(3), fd.FixedHarmonic(), 30)
        lam, _ = fd.weight_rows(tr.alphas)
        y_hat = np.sum(lam[:, None] * np.array(tr.ys), axis=0)
        want = spec.f_val(y_hat) + spec.h_val(y_hat)
        assert tr.primal[-1] == pytest.approx(want, rel=1e-12)


class TestHybrid:
    def test_first_iteration_hand_values(self):
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_hybrid(spec, [1.0, 0.0], [1.0, 0.0], fd.FixedHarmonic(), 1)
        np.testing.assert_array_equal(tr.xs[1], [0.0, 1.0])
        np.testing.assert_array_equal(tr.us[1], [1.0, 0.0])
        assert tr.true_gap[0] == pytest.approx(1.0, abs=0)
        assert tr.gap_plain[0] == pytest.approx(1.0, abs=0)

    def test_oracle_fixed_point_keeps_gap_constant(self):
        # f = <u0, .> and h the indicator of {x0}: the joint oracle returns
        # (x0, u0) from everywhere, so (x0, u0) never moves
        x0 = np.array([0.3, 0.7])
        u0 = np.array([-0.2, 0.4])
        spec = fd.ProblemSpec(
            f_val=lambda y: float(u0 @ y),
            f_grad=lambda y: u0.copy(),
            f_conj_val=lambda u: 0.0 if np.allclose(u, u0) else np.inf,
            h_val=lambda x: 0.0 if np.allclose(x, x0) else np.inf,
            h_conj_val=lambda w: float(w @ x0),
            h_conj_grad=lambda w: x0.copy(),
            linmap=fd.LinearMap.identity(2),
        )
        tr = fd.run_hybrid(spec, x0, u0, fd.FixedHarmonic(), 5)
        for k in range(5):
            np.testing.assert_array_equal(tr.xs[k + 1], x0)
            np.testing.assert_array_equal(tr.us[k + 1], u0)
        assert max(tr.gap_plain) == pytest.approx(tr.gap_plain[0], abs=1e-15)

    def test_gap_bound_is_exact_for_hybrid(self):
        spec = tilted_entropy()
        x0 = np.array([1.0, 0.0, 0.0])
        tr = fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 80)
        np.testing.assert_allclose(tr.true_gap, tr.gap_sharp, rtol=1e-10, atol=1e-12)


class TestRunHygiene:
    def test_domain_error_leaves_partial_trace(self):
        calls = {"n": 0}

        def flaky_grad(y):
            # 2 calls per iteration (step + the Bregman fallback of the
            # certificate increment); budget 8 completes exactly 4 rows
            calls["n"] += 1
            if calls["n"] > 8:
                raise ValueError("oracle budget exhausted")
            return y

        spec = fd.make_quadratic_simplex(n=2)
        broken = fd.ProblemSpec(
            f_val=spec.f_val, f_grad=flaky_grad, f_conj_val=spec.f_conj_val,
            h_val=spec.h_val, h_conj_val=spec.h_conj_val, h_conj_grad=spec.h_conj_grad,
            linmap=spec.linmap,
        )
        tr = fd.run_gcs(broken, [1.0, 0.0], fd.FixedHarmonic(), 10)
        assert tr.error is not None and "f_grad" in tr.error
        assert tr.k == 4

    def test_rejects_bad_kmax_policy_mode(self):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError):
            fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 0)
        with pytest.raises(fd.RangeError):
            fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 5, policy="median")
        with pytest.raises(fd.RangeError):
            fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 5, mode="fuzzy")

    def test_hybrid_rejects_best_policy(self):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="policy"):
            fd.run_hybrid(spec, [1.0, 0.0], [1.0, 0.0], fd.FixedHarmonic(), 5, policy="best")

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_step_size_outside_unit_interval_raises(self, algo):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="1.5 outside"):
            _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), OvershootAtTwo(), k_max=5)

    def test_rejects_nonfinite_start(self):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.DomainError):
            fd.run_gcs(spec, [np.inf, 0.0], fd.FixedHarmonic(), 5)

    def test_debug_mode_checks_conjugate_pairs(self):
        spec = tilted_entropy()
        tr = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.FixedHarmonic(), 10, debug=True)
        assert tr.error is None

    def test_runs_are_deterministic(self):
        spec = fd.make_quadratic_simplex(n=3)
        a = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.ExactLineSearch(), 40)
        b = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.ExactLineSearch(), 40)
        assert a.alphas == b.alphas
        assert a.true_gap == b.true_gap


@pytest.mark.parametrize("mode", ["plain", "sharp"])
@pytest.mark.parametrize("policy", ["average", "best"])
def test_sandwich_everywhere(mode, policy):
    """certified bound above, weak duality below, on every run variant"""
    rng = np.random.default_rng(21)
    problems = [
        (fd.make_quadratic_simplex(n=2), np.array([1.0, 0.0])),
        (tilted_entropy(), np.array([1.0, 0.0, 0.0])),
        (fd.make_quadratic_simplex(Q=np.eye(5), b=rng.standard_normal(5) * 0.4, n=3,
                                   a=fd.random_linear_map(5, 3, rng)),
         np.array([1.0, 0.0, 0.0])),
    ]
    for spec, x0 in problems:
        for rule in (fd.FixedHarmonic(), fd.ExactLineSearch()):
            runs = [
                fd.run_gcs(spec, x0, rule, 100, policy=policy, mode=mode),
                fd.run_gmd(spec, np.zeros(spec.dim_y), rule, 100, policy=policy, mode=mode),
                # hybrid has no aggregate and accepts only the default policy
                fd.run_hybrid(spec, x0, spec.f_grad(spec.linmap.apply(x0)), rule, 100,
                              mode=mode),
            ]
            for tr in runs:
                assert tr.error is None
                tg = np.asarray(tr.true_gap)
                assert float(np.min(tg)) >= -1e-9
                assert float(np.max(tg - tr.gap_bound)) <= 1e-8


def test_line_search_gap_bound_is_nonincreasing():
    spec = fd.make_quadratic_simplex(n=2)
    tr = fd.run_gcs(spec, [1.0, 0.0], fd.ExactLineSearch(), 300)
    g = np.asarray(tr.gap_plain)
    assert np.all(np.diff(g) <= 1e-14)


def test_harmonic_schedule_certificate_bounds():
    """the certified bounds themselves obey 2C/(k+2), with the constant taken
    from enumeration (primal) or from the trajectory (dual / symmetric)"""
    quad = fd.make_quadratic_simplex(n=2)
    tr = fd.run_gcs(quad, [1.0, 0.0], fd.FixedHarmonic(), 1000)
    k = np.arange(1, tr.k + 1)
    assert np.all(np.asarray(tr.gap_plain) <= 4.0 / (k + 2.0) + 1e-12)

    entropy = tilted_entropy()
    md = fd.run_gmd(entropy, np.zeros(3), fd.FixedHarmonic(), 1000)
    c_star = fd.curvature_along_trace(md, entropy, 2.0)
    k = np.arange(1, md.k + 1)
    assert np.all(np.asarray(md.gap_plain) <= 2.0 * c_star / (k + 2.0) + 1e-12)

    x0 = np.array([1.0, 0.0, 0.0])
    hyb = fd.run_hybrid(entropy, x0, entropy.f_grad(x0), fd.FixedHarmonic(), 1000)
    cp, cd = fd.curvature_along_trace(hyb, entropy, 2.0)
    k = np.arange(1, hyb.k + 1)
    assert np.all(np.asarray(hyb.gap_plain) <= 2.0 * (cp + cd) / (k + 2.0) + 1e-12)


def test_approx_gamma_run_meets_slackened_bound():
    """exponent slack delta widens the certified decay bound accordingly"""
    spec = fd.make_quadratic_simplex(n=2)
    tr = fd.run_gcs(spec, [1.0, 0.0], fd.ApproxGamma(delta=0.1), 500)
    g = 1.9  # gamma - delta with the enumerated gamma = 2
    k = np.arange(1, tr.k + 1)
    bound = 2.0 * (g / (k + g)) ** (g - 1.0)
    assert np.all(np.asarray(tr.true_gap) <= bound + 1e-12)


# ---------------------------------------------------------------------------
# failure injection: an oracle that breaks mid-run
# ---------------------------------------------------------------------------

def _injection_specs():
    rng = np.random.default_rng(5)
    return {
        # closed-form D_f only: the dual-side increments call h_conj_grad
        "quadratic-random-A": fd.make_quadratic_simplex(
            Q=np.eye(4), b=0.3 * rng.standard_normal(4), n=3, a=fd.random_linear_map(4, 3, rng)),
        # no closed forms: the primal-side increments call f_grad
        "holder": fd.make_holder_power_simplex(1.5, 3),
    }


def _drive(algo, spec, start, rule, k_max=30):
    x0, u0 = start
    if algo == "gcs":
        return fd.run_gcs(spec, x0, rule, k_max)
    if algo == "gmd":
        return fd.run_gmd(spec, np.zeros(spec.dim_y), rule, k_max)
    return fd.run_hybrid(spec, x0, u0, rule, k_max)


def _wrapped(spec, oracle, fail_from, failure):
    """``spec`` whose ``oracle`` raises, or returns NaN or +inf, from call
    ``fail_from`` on (never, with None); also returns the call counter."""
    real = getattr(spec, oracle)
    calls = {"n": 0}

    def flaky(w):
        calls["n"] += 1
        if fail_from is not None and calls["n"] >= fail_from:
            if failure == "raise":
                raise ValueError("injected failure")
            return np.full(np.shape(real(w)), np.nan if failure == "nan" else np.inf)
        return real(w)

    return replace(spec, **{oracle: flaky}), calls


_COLUMNS = ("alphas", "primal", "dual", "gap_plain", "gap_sharp", "true_gap", "residual")
# iterate histories each driver records, with their extra start entry
_HISTORIES = {
    "gcs": {"xs": 1, "us": 0, "ss": 0},
    "gmd": {"vs": 1, "ys": 0, "zs": 0},
    "hybrid": {"xs": 1, "us": 1, "ss": 0, "zs": 0},
}


@pytest.mark.parametrize("failure", ["raise", "nan", "inf"])
@pytest.mark.parametrize("oracle", ["h_conj_grad", "f_grad", "f_val", "f_conj_val", "h_val",
                                    "h_conj_val"])
@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
@pytest.mark.parametrize("rule", [fd.FixedHarmonic(), fd.ExactLineSearch()],
                         ids=["fixed_harmonic", "exact_ls"])
@pytest.mark.parametrize("family", ["quadratic-random-A", "holder"])
def test_failing_oracle_leaves_consistent_prefix(family, rule, algo, oracle, failure):
    spec = _injection_specs()[family]
    x0 = spec.h_conj_grad(np.zeros(spec.dim_x))
    start = (x0, spec.f_grad(spec.linmap.apply(x0)))
    counted, calls = _wrapped(spec, oracle, None, failure)
    healthy = _drive(algo, counted, start, rule)
    assert healthy.error is None and healthy.k == 30
    for fail_from in (1, calls["n"] // 2):
        broken = _drive(algo, _wrapped(spec, oracle, fail_from, failure)[0], start, rule)
        assert broken.error is not None
        assert f"oracle {oracle} " in broken.error
        if failure == "raise":
            assert "injected failure" in broken.error
        elif oracle.endswith("_val"):
            assert ("NaN" if failure == "nan" else "+inf") in broken.error
        else:
            assert "non-finite" in broken.error
        k = broken.k
        assert (k > 0) == (fail_from > 1) and k < healthy.k
        assert all(len(getattr(broken, c)) == k for c in _COLUMNS + ("t_ms",))
        recorded = _HISTORIES[algo]
        for name in ("xs", "us", "ss", "zs", "vs", "ys"):
            history = getattr(broken, name)
            assert len(history) == (k + recorded[name] if name in recorded else 0)
            for got, want in zip(history, getattr(healthy, name)):
                assert got.tobytes() == want.tobytes()
        for c in _COLUMNS:
            assert getattr(broken, c) == getattr(healthy, c)[:k]
