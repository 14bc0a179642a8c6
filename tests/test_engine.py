"""Engine behavior: exact hand-traced iterates, update-rule equivalences,
stopping, aborts, the certified-gap sandwich, and a trace's float64 storage."""

import gc
import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fenchelduo as fd
from fenchelduo.engine import _Segment
from fenchelduo.oracles import _oracle_point
from fenchelduo.steps import _GOLDEN
from reference_drivers import (bregman_hconj, ref_run_gcs, ref_run_gmd, ref_run_hybrid,
                               step_divergence_dual, step_divergence_primal)
from test_reference_drivers import FAMILIES, RULES, assert_same_run, bits, build, start


@dataclass(frozen=True)
class FreezeAfterFirst(fd.StepRule):
    """Full first step, then alpha = 0 forever."""

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

    def test_dual_value_is_at_most_best_step_value(self):
        # the certificate is the average or the best u_k, whichever is lower
        spec = fd.make_quadratic_simplex(n=2)
        tr = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 50)
        A, At = spec.linmap.apply, spec.linmap.adjoint
        us = [spec.f_grad(A(x)) for x in tr.xs[:-1]]
        vals = [spec.f_conj_val(u) + spec.h_conj_val(-At(u)) for u in us]
        for k in range(tr.k):
            best = min(vals[:k + 1])
            assert -tr.dual[k] <= best + 1e-15 * abs(best)


class TestMirrorDescent:
    def test_symmetric_start_is_fixed_point(self):
        # f = 0.5||.||^2, v0 = 0: the mirror point starts at the optimum and
        # the shift invariance of softmax keeps it there
        spec = fd.make_entropy_lse(2)
        tr = fd.run_gmd(spec, np.zeros(2), fd.FixedHarmonic(), 3)
        np.testing.assert_allclose(spec.h_conj_grad(tr.vs[0]), [0.5, 0.5], rtol=1e-15)
        np.testing.assert_allclose(tr.vs[1], [-0.5, -0.5], rtol=1e-15)
        np.testing.assert_allclose(spec.h_conj_grad(tr.vs[1]), [0.5, 0.5], rtol=1e-15)
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
        ys = [spec.h_conj_grad(v) for v in tr.vs]
        for k in range(1, 25):
            v, y, a = tr.vs[k], ys[k], tr.alphas[k]
            want = spec.h_conj_grad((1.0 - a) * v - a * spec.f_grad(y))
            np.testing.assert_allclose(ys[k + 1], want, rtol=1e-9, atol=1e-12)

    def test_primal_column_uses_aggregate(self):
        spec = tilted_entropy()
        tr = fd.run_gmd(spec, np.zeros(3), fd.FixedHarmonic(), 30)
        lam, _ = fd.weight_rows(tr.alphas)
        ys = [spec.h_conj_grad(v) for v in tr.vs[:-1]]
        y_hat = np.sum(lam[:, None] * np.array(ys), axis=0)
        average = spec.f_val(y_hat) + spec.h_val(y_hat)
        best = min(spec.f_val(y) + spec.h_val(y) for y in ys)
        # the certificate is the lower-valued of the average and the best y_k;
        # here that is the best mirror point, by more than the tolerance
        assert best < average - 1e-11
        assert tr.primal[-1] == pytest.approx(best, rel=1e-12)


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
            # 1 call per iteration (the step's z, which the Bregman fallback
            # of the certificate increment reuses); budget 4 completes
            # exactly 4 rows
            calls["n"] += 1
            if calls["n"] > 4:
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

    def test_rejects_bad_kmax_mode(self):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError):
            fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 0)
        with pytest.raises(fd.RangeError):
            fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 5, mode="fuzzy")

    @pytest.mark.parametrize("history", ["False", 0, None])
    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_rejects_non_bool_history(self, algo, history):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="^history must be True or False, got "):
            _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), fd.FixedHarmonic(), history=history)
        assert len(_drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), fd.FixedHarmonic(),
                          history=np.False_).xs) == 0

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_rejects_nan_epsilon(self, algo):
        # every comparison with NaN is false, so such a run would never stop early
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="epsilon"):
            _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), fd.FixedHarmonic(), k_max=5,
                   epsilon=math.nan)

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    @pytest.mark.parametrize("epsilon", [True, False, "0.1", [0.1], 1j],
                             ids=["True", "False", "str", "list", "complex"])
    def test_rejects_non_real_epsilon(self, algo, epsilon):
        # True would run with epsilon = 1 and stop at k = 2 as if it converged
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="^epsilon must be a number or None, got "):
            _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), fd.FixedHarmonic(), k_max=5,
                   epsilon=epsilon)

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_accepts_numpy_epsilon(self, algo):
        spec = fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1]))
        start = ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        for epsilon in (0.05, 0):
            want = _drive(algo, spec, start, fd.FixedHarmonic(), k_max=200, epsilon=epsilon)
            for same in (np.float64(epsilon), np.float32(epsilon), np.int64(epsilon)):
                if float(same) != epsilon:
                    continue
                got = _drive(algo, spec, start, fd.FixedHarmonic(), k_max=200, epsilon=same)
                assert got.error is None and got.k == want.k
                assert np.array_equal(got.gap_plain, want.gap_plain)

    @pytest.mark.parametrize("mode", ["plain", "sharp"])
    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_epsilon_stops_after_first_row_strictly_below(self, algo, mode):
        # epsilon is row 10's own bound: the run goes past row 10, where a
        # non-strict test would stop, to the first row whose bound is below it
        spec = fd.make_quadratic_simplex(n=3)
        start = ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        full = _drive(algo, spec, start, fd.FixedHarmonic(), k_max=40, mode=mode)
        epsilon = full.gap_bound[9]
        first = next(k for k, g in enumerate(full.gap_bound, 1) if g < epsilon)
        tr = _drive(algo, spec, start, fd.FixedHarmonic(), k_max=40, mode=mode, epsilon=epsilon)
        bound = tr.gap_sharp if mode == "sharp" else tr.gap_plain
        assert tr.error is None and tr.k == first > 10
        assert np.array_equal(bound, tr.gap_bound)
        assert np.array_equal(tr.gap_bound, full.gap_bound[:first])

    def test_no_driver_takes_policy(self):
        # no driver has a policy keyword: gcs and gmd certify by the better of
        # two points, hybrid by its iterates
        spec = fd.make_quadratic_simplex(n=2)
        for algo in ("gcs", "gmd", "hybrid"):
            with pytest.raises(TypeError, match="policy"):
                _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), fd.FixedHarmonic(), k_max=5,
                       policy="best")

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    @pytest.mark.parametrize("k_max", [2.5, 3.0, True, "3", None],
                             ids=["2.5", "3.0", "True", "str", "None"])
    def test_rejects_non_integer_kmax(self, algo, k_max):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="k_max must be an integer"):
            _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), fd.FixedHarmonic(), k_max=k_max)

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_accepts_numpy_integer_kmax(self, algo):
        spec = fd.make_quadratic_simplex(n=2)
        for k_max in (np.int64(3), np.int32(3), np.uint8(3)):
            tr = _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), fd.FixedHarmonic(), k_max=k_max)
            assert tr.error is None and tr.k == 3

    @pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
    def test_step_size_outside_unit_interval_raises(self, algo):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.RangeError, match="1.5 outside"):
            _drive(algo, spec, ([1.0, 0.0], [1.0, 0.0]), OvershootAtTwo(), k_max=5)

    def test_rejects_nonfinite_start(self):
        spec = fd.make_quadratic_simplex(n=2)
        with pytest.raises(fd.DomainError):
            fd.run_gcs(spec, [np.inf, 0.0], fd.FixedHarmonic(), 5)

    def test_runs_are_deterministic(self):
        spec = fd.make_quadratic_simplex(n=3)
        a = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.ExactLineSearch(), 40)
        b = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.ExactLineSearch(), 40)
        assert np.array_equal(a.alphas, b.alphas)
        assert np.array_equal(a.true_gap, b.true_gap)


@pytest.mark.parametrize("mode", ["plain", "sharp"])
def test_sandwich_everywhere(mode):
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
                fd.run_gcs(spec, x0, rule, 100, mode=mode),
                fd.run_gmd(spec, np.zeros(spec.dim_y), rule, 100, mode=mode),
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


def _drive(algo, spec, start, rule, k_max=30, **kwargs):
    x0, u0 = start
    if algo == "gcs":
        return fd.run_gcs(spec, x0, rule, k_max, **kwargs)
    if algo == "gmd":
        return fd.run_gmd(spec, np.zeros(spec.dim_y), rule, k_max, **kwargs)
    return fd.run_hybrid(spec, x0, u0, rule, k_max, **kwargs)


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
# the iterate histories each driver records, K + 1 entries each
_HISTORIES = {"gcs": ("xs",), "gmd": ("vs",), "hybrid": ("xs", "us")}


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
        for name in ("xs", "us", "vs"):
            history = getattr(broken, name)
            assert len(history) == (k + 1 if name in _HISTORIES[algo] else 0)
            for got, want in zip(history, getattr(healthy, name)):
                assert got.tobytes() == want.tobytes()
        for c in _COLUMNS:
            assert np.array_equal(getattr(broken, c), getattr(healthy, c)[:k])


# ---------------------------------------------------------------------------
# conjugate-pair defects: the streaming residual is the run's check
# ---------------------------------------------------------------------------

_DEFECTS = {
    "f_conj+c": lambda spec: replace(spec, f_conj_val=lambda u: spec.f_conj_val(u) + 1e-3),
    "h_conj+c": lambda spec: replace(spec, h_conj_val=lambda w: spec.h_conj_val(w) + 1e-3),
    "h+c": lambda spec: replace(spec, h_val=lambda x: spec.h_val(x) + 1e-3),
    "f+c": lambda spec: replace(spec, f_val=lambda y: spec.f_val(y) + 1e-3),
    "f_grad*1.01": lambda spec: replace(spec, f_grad=lambda y: 1.01 * spec.f_grad(y)),
}


def _defect_specs():
    return {"tilted-entropy": tilted_entropy(),
            "quadratic-random-A": _injection_specs()["quadratic-random-A"]}


def _defect_run(algo, spec):
    x0 = np.asarray(spec.h_conj_grad(np.zeros(spec.dim_x)), dtype=float)
    starts = (x0, spec.f_grad(spec.linmap.apply(x0)))
    return _drive(algo, spec, starts, fd.FixedHarmonic(), k_max=10)


@pytest.mark.parametrize("defect", _DEFECTS)
@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
@pytest.mark.parametrize("family", ["tilted-entropy", "quadratic-random-A"])
def test_residual_flags_conjugate_pair_defect(family, algo, defect):
    """an oracle pair that breaks Fenchel-Young at the queried points runs to
    the end, and the residual column shows the defect"""
    spec = _defect_specs()[family]
    assert max(_defect_run(algo, spec).residual) <= 1e-8
    tr = _defect_run(algo, _DEFECTS[defect](spec))
    assert tr.error is None and tr.k == 10
    assert max(tr.residual) > 1e-8


@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
@pytest.mark.parametrize("family", ["tilted-entropy", "quadratic-random-A"])
def test_offsetting_conjugate_shifts_change_no_certified_value(family, algo):
    """f* + c with h* - c breaks Fenchel-Young for each conjugate alone, but
    leaves every dual value f*(u) + h*(-A*u) unchanged: under a schedule rule
    no recorded column moves, so no certified number depends on the pair"""
    spec = _defect_specs()[family]
    shifted = _DEFECTS["f_conj+c"](spec)
    shifted = replace(shifted, h_conj_val=lambda w: spec.h_conj_val(w) - 1e-3)
    healthy, tr = _defect_run(algo, spec), _defect_run(algo, shifted)
    assert healthy.error is None and tr.error is None and tr.k == healthy.k == 10
    for c in _COLUMNS:
        np.testing.assert_allclose(getattr(tr, c), getattr(healthy, c), rtol=0, atol=1e-12,
                                   err_msg=c)


def _injected_error(oracle, failure):
    # the message of _wrapped's failure "raise" or "inf" in ``oracle``
    if failure == "raise":
        return rf"oracle {oracle} failed: injected failure$"
    if oracle.endswith("_val"):
        return rf"oracle {oracle} returned \+inf at "
    return rf"oracle {oracle} returned non-finite output$"


@pytest.mark.parametrize("failure", ["raise", "inf"])
@pytest.mark.parametrize("oracle", ["h_conj_grad", "f_grad", "f_val", "f_conj_val", "h_val",
                                    "h_conj_val"])
@pytest.mark.parametrize("check", ["bach", "symmetry"])
def test_equivalence_dual_run_names_the_users_oracle(check, oracle, failure):
    # the fault starts at the first call after the healthy primal run's, so
    # the check's primal run passes and its dual run, on the dual spec, fails
    spec = _injection_specs()["holder"]
    x0 = spec.h_conj_grad(np.zeros(spec.dim_x))
    u0 = spec.f_grad(spec.linmap.apply(x0))
    rule = fd.FixedHarmonic()
    counted, calls = _wrapped(spec, oracle, None, failure)
    if check == "bach":
        assert fd.run_gcs(counted, x0, rule, 10).error is None
    else:
        assert fd.run_hybrid(counted, x0, u0, rule, 10).error is None
    broken = _wrapped(spec, oracle, calls["n"] + 1, failure)[0]
    with pytest.raises(fd.ConstructionError,
                       match="^dual run aborted: " + _injected_error(oracle, failure)):
        if check == "bach":
            fd.check_bach_equivalence(broken, x0, rule, 10)
        else:
            fd.check_hybrid_symmetry(broken, x0, u0, rule, 10)


@pytest.mark.parametrize("failure", ["raise", "inf"])
@pytest.mark.parametrize("oracle", ["h_conj_grad", "h_conj_val"])
@pytest.mark.parametrize("algo", ["gmd", "hybrid"])
def test_curvature_dual_side_names_the_users_oracle(algo, oracle, failure):
    # the dual side's Bregman distance D_{h*} calls h_conj_val and
    # h_conj_grad; the primal side of a hybrid trace calls neither
    spec = _injection_specs()["holder"]
    x0 = spec.h_conj_grad(np.zeros(spec.dim_x))
    trace = _drive(algo, spec, (x0, spec.f_grad(spec.linmap.apply(x0))), fd.FixedHarmonic(),
                   k_max=10)
    assert trace.error is None
    with pytest.raises(fd.FenchelDuoError, match="^" + _injected_error(oracle, failure)):
        fd.curvature_along_trace(trace, _wrapped(spec, oracle, 1, failure)[0], 2.0)


# ---------------------------------------------------------------------------
# line-search probes: each value against an uncached evaluation, and the
# oracle calls a step makes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecordingRule(fd.StepRule):
    """``rule`` with every (k, alpha, d_fun(alpha)) the kernel hands it logged;
    a probe that raises ``InfiniteValue`` is logged with the exception type."""

    rule: fd.StepRule
    log: list

    def select(self, k, gap, d_fun):
        def probe(a):
            try:
                d = d_fun(a)
            except fd.InfiniteValue:
                self.log.append((k, a, fd.InfiniteValue))
                raise
            self.log.append((k, a, d))
            return d

        return self.rule.select(k, gap, probe)


def _uncached_divergence(algo, sharp, spec, trace, k, a):
    """The surrogate's divergence at step k of ``trace``, as the reference
    loops evaluate it: every oracle value recomputed from the raw iterates."""
    A, At = spec.linmap.apply, spec.linmap.adjoint
    keep = 1.0 - a
    if algo == "gmd":
        v = trace.vs[k]
        z = spec.f_grad(A(spec.h_conj_grad(At(v))))
        if sharp:
            return step_divergence_dual(v, -z, a, spec)
        return bregman_hconj(At(keep * v - a * z), At(v), spec)
    x = trace.xs[k]
    if algo == "gcs":
        s = spec.h_conj_grad(-At(spec.f_grad(A(x))))
        if sharp:
            return step_divergence_primal(x, s, a, spec)
        return fd.bregman_f(A(keep * x + a * s), A(x), spec)
    u = trace.us[k]
    s, z = spec.h_conj_grad(-At(u)), spec.f_grad(A(x))
    if sharp:
        return step_divergence_primal(x, s, a, spec) + step_divergence_dual(-u, -z, a, spec)
    return (fd.bregman_f(A(keep * x + a * s), A(x), spec)
            + bregman_hconj(-At(keep * u + a * z), -At(u), spec))


@dataclass(frozen=True)
class ProbeGrid(fd.StepRule):
    """Probes the surrogate at fixed step sizes, the endpoints among them,
    then takes the harmonic step, which it never probed after step 0."""

    grid: tuple = (0.0, 1e-9, 0.137, 1.0 / 3.0, 0.5, 0.618, 0.9, 1.0)

    def select(self, k, gap, d_fun):
        for a in self.grid:
            try:
                d_fun(a)
            except fd.InfiniteValue:
                pass
        return 2.0 / (k + 2.0)


@pytest.mark.parametrize("rule", [fd.ExactLineSearch(), ProbeGrid()],
                         ids=["exact_ls", "probe_grid"])
@pytest.mark.parametrize("general", [False, True], ids=["identity", "random-A"])
@pytest.mark.parametrize("family", FAMILIES)
def test_every_probe_matches_uncached_evaluation_bit_for_bit(family, general, rule):
    spec = build(family, general)
    x0, u0, v0 = start(spec)
    for algo in ("gcs", "gmd", "hybrid"):
        for mode in ("plain", "sharp"):
            log = []
            recording = RecordingRule(rule, log)
            if algo == "gcs":
                trace = fd.run_gcs(spec, x0, recording, 25, mode=mode)
            elif algo == "gmd":
                trace = fd.run_gmd(spec, v0, recording, 25, mode=mode)
            else:
                trace = fd.run_hybrid(spec, x0, u0, recording, 25, mode=mode)
            assert trace.error is None
            assert len(log) > 0
            for k, a, got in log:
                try:
                    want = _uncached_divergence(algo, mode == "sharp", spec, trace, k, a)
                except fd.InfiniteValue:
                    want = fd.InfiniteValue
                if got is fd.InfiniteValue or want is fd.InfiniteValue:
                    assert got is want, (algo, mode, k, a)
                else:
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                        algo, mode, k, a, got, want)


def _counting(spec, names):
    """``spec`` whose linear map and the oracles ``names`` count their calls."""
    counts = {name: 0 for name in ("apply", "adjoint") + names}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    linmap = replace(spec.linmap, apply=counted("apply", spec.linmap.apply),
                     adjoint=counted("adjoint", spec.linmap.adjoint))
    oracles = {name: counted(name, getattr(spec, name)) for name in names}
    return replace(spec, linmap=linmap, **oracles), counts


@dataclass(frozen=True)
class CallBudget(fd.StepRule):
    """Exact line search that logs, per step, its probes and the calls each
    counter of ``counts`` made while it searched."""

    counts: dict
    log: list

    def select(self, k, gap, d_fun):
        before = dict(self.counts)
        probes = []

        def probe(a):
            probes.append(a)
            return d_fun(a)

        alpha = fd.ExactLineSearch().select(k, gap, probe)
        if k > 0:
            self.log.append((probes, {n: c - before[n] for n, c in self.counts.items()}))
        return alpha


def _repeats(trace, k):
    """Whether step k repeats step k - 1 bit for bit: that step took alpha = 0
    and left every iterate the run moves as it was, byte for byte."""
    moving = [h for h in (trace.xs, trace.us, trace.vs) if len(h)]
    return trace.alphas[k - 1] == 0.0 and all(bits(h[k]) == bits(h[k - 1]) for h in moving)


def _new_points(trace, probes):
    """Per step k >= 1, the step sizes among ``probes[k]`` that evaluate a
    point: those with alpha > 0, each once, that the run's probe memo does
    not hold.  The memo starts empty on every step but one that repeats the
    step before (``_repeats``), which keeps what its stretch evaluated."""
    memo, new = set(), {}
    for k in range(1, trace.k):
        if not _repeats(trace, k):
            memo = set()
        new[k] = [a for a in dict.fromkeys(probes.get(k, ())) if a > 0.0 and a not in memo]
        memo.update(new[k])
    return new


def _step_budgets(spec, algo):
    """Each line-search step's probes and calls in a 6-step sharp run, checked
    against the budget.  The probe at 0 is the base, answered with 0 and no
    call, and a step size probed before in the step, or in a step that this
    one repeats, is answered from the run's memo: a step repeating an
    unmoved alpha = 0 step makes no call while it searches.  Each probe that
    evaluates a point (``_new_points``) makes one A and one h, and h at the
    target is read once per step, at the first of them (A and h at the base
    come with the iterate from the step before); hybrid's dual segment
    likewise, one A* and one f* per such probe plus f* at the target.
    Without a closed-form Bregman distance such a probe reads f (h* on
    hybrid's dual side) at its point alone, and no gradient: f' at the base
    is the step's oracle output."""
    counted, counts = _counting(spec, ("h_val", "f_conj_val", "f_val", "f_grad", "h_conj_val",
                                       "h_conj_grad"))
    log = []
    x0 = spec.h_conj_grad(np.zeros(spec.dim_x))
    if algo == "gcs":
        trace = fd.run_gcs(counted, x0, CallBudget(counts, log), 6, mode="sharp")
    else:
        trace = fd.run_hybrid(counted, x0, spec.f_grad(spec.linmap.apply(x0)),
                              CallBudget(counts, log), 6, mode="sharp")
    assert trace.error is None and len(log) == 5
    new = _new_points(trace, {k: probes for k, (probes, _) in enumerate(log, 1)})
    for k, (probes, calls) in enumerate(log, 1):
        assert probes.count(0.0) == 1
        points = len(new[k])
        assert points == 0 or not _repeats(trace, k)
        assert calls["apply"] == points
        assert calls["h_val"] == points + (points > 0)
        if algo == "gcs":
            assert calls["adjoint"] == 0 and calls["f_conj_val"] == 0
        else:
            assert calls["adjoint"] == points
            assert calls["f_conj_val"] == points + (points > 0)
        assert calls["f_val"] == (0 if spec.breg_f else points)
        assert calls["h_conj_val"] == (points if algo == "hybrid" and not spec.breg_hconj else 0)
        assert calls["f_grad"] == calls["h_conj_grad"] == 0
    return [len(probes) for probes, _ in log]


@pytest.mark.parametrize("algo", ["gcs", "hybrid"])
def test_line_search_step_oracle_budget(algo):
    """the budget holds on long searches: a Hölder surrogate is no parabola"""
    rng = np.random.default_rng(5)
    spec = fd.make_holder_power_simplex(1.5, 3, a=fd.random_linear_map(4, 3, rng))
    assert all(probes > 10 for probes in _step_budgets(spec, algo))


def test_quadratic_line_search_takes_the_vertex():
    """on a quadratic f over the simplex the surrogate is a parabola: gcs
    probes 0, 1, the two golden points and the vertex, within the budget;
    the step at k = 2, whose vertex lies beyond 1, stops at 1 after four"""
    rng = np.random.default_rng(5)
    spec = fd.make_quadratic_simplex(Q=np.eye(4), b=0.3 * rng.standard_normal(4), n=3,
                                     a=fd.random_linear_map(4, 3, rng))
    assert _step_budgets(spec, "gcs") == [5, 4, 5, 5, 5]


@pytest.mark.parametrize("algo, per_iteration", [
    ("gcs", {"apply": 1, "adjoint": 2, "f_val": 1, "f_grad": 1, "f_conj_val": 2, "h_val": 2,
             "h_conj_val": 2, "h_conj_grad": 1, "breg_f": 1, "breg_hconj": 0}),
    ("gmd", {"apply": 2, "adjoint": 1, "f_val": 2, "f_grad": 1, "f_conj_val": 2, "h_val": 2,
             "h_conj_val": 1, "h_conj_grad": 1, "breg_f": 0, "breg_hconj": 1}),
    ("hybrid", {"apply": 1, "adjoint": 1, "f_val": 1, "f_grad": 1, "f_conj_val": 2,
                "h_val": 2, "h_conj_val": 1, "h_conj_grad": 1, "breg_f": 1, "breg_hconj": 1}),
])
def test_schedule_iteration_oracle_counts(algo, per_iteration):
    """each new iterate is evaluated once, by the increment at the chosen step
    size: a schedule iteration on entropy-lse with a random A makes 13 oracle
    and map calls in gcs and gmd (3 of them for the averaged certificate's
    dual value) and 12 in hybrid"""
    rng = np.random.default_rng(2)
    spec = fd.make_entropy_lse(3, a=fd.random_linear_map(4, 3, rng),
                               b=0.3 * rng.standard_normal(4))
    x0 = spec.h_conj_grad(np.zeros(3))
    u0 = spec.f_grad(spec.linmap.apply(x0))
    totals = []
    for k_max in (5, 6):
        counted, counts = _counting(spec, ("f_val", "f_grad", "f_conj_val", "h_val",
                                           "h_conj_val", "h_conj_grad", "breg_f", "breg_hconj"))
        if algo == "gcs":
            trace = fd.run_gcs(counted, x0, fd.FixedHarmonic(), k_max)
        elif algo == "gmd":
            trace = fd.run_gmd(counted, np.zeros(4), fd.FixedHarmonic(), k_max)
        else:
            trace = fd.run_hybrid(counted, x0, u0, fd.FixedHarmonic(), k_max)
        assert trace.error is None and trace.k == k_max
        totals.append(counts)
    assert {name: totals[1][name] - totals[0][name] for name in totals[0]} == per_iteration


# the sides each driver moves: the value and gradient oracles of f on the primal
# side, of h* on the dual side, and the closed-form Bregman distance of each
_SIDES = {"gcs": [("f_val", "f_grad", "breg_f")],
          "gmd": [("h_conj_val", "h_conj_grad", "breg_hconj")],
          "hybrid": [("f_val", "f_grad", "breg_f"), ("h_conj_val", "h_conj_grad", "breg_hconj")]}


@pytest.mark.parametrize("rule", [fd.FixedHarmonic(), fd.ExactLineSearch()],
                         ids=["fixed_harmonic", "exact_ls"])
@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
@pytest.mark.parametrize("family", ["holder", "quadratic-box"])
def test_each_point_reads_f_and_its_gradient_once(family, algo, rule):
    """a side without a closed-form Bregman distance reads f once per probe
    that evaluates a point (``_new_points``) and once per row, at the
    point's image, plus f(A x_0) once on the first row, and f' once per row,
    the step's oracle output, which serves every probe as f' at the base: at
    K = 50 on Hölder gcs, 51 f_val and 50 f_grad calls on the 2/(k+2)
    schedule; a closed-form side reads f once per row, for the objective,
    and its closed form once per such probe and per row.  A row at the step
    size its step evaluated last reuses that evaluation: no f, and no closed
    form"""
    rng = np.random.default_rng(5)
    a = fd.random_linear_map(4, 3, rng)
    spec = (fd.make_holder_power_simplex(1.5, 3, a=a) if family == "holder"
            else fd.make_quadratic_box(n=3, b=0.5 * rng.standard_normal(4), a=a))
    names = tuple(n for n in ("f_val", "f_grad", "h_conj_val", "h_conj_grad", "breg_f",
                              "breg_hconj") if getattr(spec, n) is not None)
    counted, counts = _counting(spec, names)
    probes, k_max = [], 50
    recording = RecordingRule(rule, probes)
    x0 = spec.h_conj_grad(np.zeros(3))
    if algo == "gcs":
        trace = fd.run_gcs(counted, x0, recording, k_max)
    elif algo == "gmd":
        trace = fd.run_gmd(counted, np.zeros(4), recording, k_max)
    else:
        trace = fd.run_hybrid(counted, x0, spec.f_grad(spec.linmap.apply(x0)), recording, k_max)
    assert trace.error is None and trace.k == k_max
    assert (len(probes) == 0) == isinstance(rule, fd.FixedHarmonic)
    by_step = {}
    for step, a, _ in probes:
        by_step.setdefault(step, []).append(a)
    p = sum(len(new) - (bool(new) and trace.alphas[k] == new[-1])
            for k, new in _new_points(trace, by_step).items())
    for value, grad, closed in _SIDES[algo]:
        if getattr(spec, closed) is None:
            assert (counts[value], counts[grad]) == (p + k_max + 1, k_max)
        else:
            assert (counts[value], counts[grad], counts[closed]) == (k_max, k_max, p + k_max)


def test_polish_probes_no_step_size_twice_in_a_row():
    """the parabolic polish takes the value in hand for a vertex at a bracket
    point: on a Hölder run whose step 32 once probed one vertex twice in a
    row, no step probes a step size twice in a row, and the step sizes still
    match the reference loop's"""
    rng = np.random.default_rng(5)
    spec = fd.make_holder_power_simplex(1.5, 3, a=fd.random_linear_map(4, 3, rng))
    x0 = spec.h_conj_grad(np.zeros(3))
    log = []
    trace = fd.run_gcs(spec, x0, RecordingRule(fd.ExactLineSearch(), log), 50)
    assert trace.error is None and trace.k == 50
    assert all((k, a) != (k2, a2) for (k, a, _), (k2, a2, _) in zip(log, log[1:]))
    assert bits(trace.alphas) == bits(ref_run_gcs(spec, x0, fd.ExactLineSearch(), 50).alphas)


def _frozen_run(algo, spec, rule, mode, gmd=fd.run_gmd, hybrid=fd.run_hybrid):
    """A 30-step run of ``algo`` on ``spec`` with ``rule``, by the package's
    drivers or by those given."""
    x0, u0, v0 = start(spec)
    if algo == "gmd":
        return gmd(spec, v0, rule, 30, mode=mode)
    return hybrid(spec, x0, u0, rule, 30, mode=mode)


def _reference(algo, spec, mode):
    return _frozen_run(algo, spec, fd.ExactLineSearch(), mode, ref_run_gmd, ref_run_hybrid)


def _first_repeat(trace):
    """The first step that repeats the step before; every later one does too."""
    first = next(k for k in range(1, trace.k) if _repeats(trace, k))
    assert first < trace.k - 10
    assert all(_repeats(trace, k) for k in range(first, trace.k))
    return first


@pytest.mark.parametrize("mode", ["plain", "sharp"])
@pytest.mark.parametrize("algo", ["gmd", "hybrid"])
def test_frozen_search_makes_no_oracle_call(algo, mode):
    """exact_ls on a random-A quadratic-simplex freezes: once a step takes
    alpha = 0 and leaves its iterates as they were, byte for byte, every
    later step repeats it and still searches, but each probe is answered
    from the run's memo, with no oracle or map call; the run equals the
    reference loop's bit for bit"""
    spec = build("quadratic-simplex", True)
    names = tuple(n for n in ("f_val", "f_grad", "f_conj_val", "h_val", "h_conj_val",
                              "h_conj_grad", "breg_f", "breg_hconj") if getattr(spec, n))
    counted, counts = _counting(spec, names)
    log = []
    trace = _frozen_run(algo, counted, CallBudget(counts, log), mode)
    assert_same_run(trace, _reference(algo, spec, mode))
    first = _first_repeat(trace)
    for k, (probes, calls) in enumerate(log, 1):
        assert len(probes) > 2
        assert any(calls.values()) == (k < first), (k, calls)


@pytest.mark.parametrize("mode", ["plain", "sharp"])
@pytest.mark.parametrize("algo", ["gmd", "hybrid"])
def test_inf_at_a_frozen_probe_is_evaluated_at_every_repeat(algo, mode):
    """h* returns +inf at the image of one probed point, the search's third,
    at 1 - G (G the golden ratio), in the first unmoved alpha = 0 step of a
    frozen run: the memo keeps no value for a probe that raised, so every
    step from there on evaluates that point again, and the run still equals
    the reference loop's bit for bit"""
    spec = build("quadratic-simplex", True)
    trace = _frozen_run(algo, spec, fd.ExactLineSearch(), mode)
    unmoved = _first_repeat(trace) - 1
    probing, images = [False], []

    def h_conj_val(w):
        if probing[0]:
            images.append(np.array(w, dtype=float))
        return spec.h_conj_val(w)

    @dataclass(frozen=True)
    class Mark(fd.StepRule):
        def select(self, k, gap, d_fun):
            def probe(a):
                probing[0] = k == unmoved and a == 1.0 - _GOLDEN
                try:
                    return d_fun(a)
                finally:
                    probing[0] = False
            return fd.ExactLineSearch().select(k, gap, probe)

    assert_same_run(_frozen_run(algo, replace(spec, h_conj_val=h_conj_val), Mark(), mode), trace)
    assert len(images) == 1
    trigger, hits = images[0].tobytes(), []

    def h_conj_val_inf(w):
        if np.asarray(w, dtype=float).tobytes() == trigger:
            hits.append(w)
            return math.inf
        return spec.h_conj_val(w)

    bad = replace(spec, h_conj_val=h_conj_val_inf)
    got = _frozen_run(algo, bad, fd.ExactLineSearch(), mode)
    assert len(hits) == got.k - unmoved
    assert _first_repeat(got) == unmoved + 1
    assert_same_run(got, _reference(algo, bad, mode))


# ---------------------------------------------------------------------------
# history=False: the same run, with no iterates kept
# ---------------------------------------------------------------------------

def _assert_same_without_history(algo, spec, rule, mode):
    """the run with history=False is the run with histories, bit for bit, every
    column but t_ms, the certificate and the error included, with no iterate kept"""
    kept = _drive(algo, spec, start(spec)[:2], rule, mode=mode)
    bare = _drive(algo, spec, start(spec)[:2], rule, mode=mode, history=False)
    assert [len(h) for h in (bare.xs, bare.us, bare.vs)] == [0, 0, 0]
    assert_same_run(bare, replace(kept, xs=[], us=[], vs=[]))
    return kept


@pytest.mark.parametrize("mode", ["plain", "sharp"])
@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("family", ["quadratic-simplex", "entropy-lse", "holder-power-simplex"])
def test_run_without_history_is_the_same_run(family, rule, algo, mode):
    kept = _assert_same_without_history(algo, build(family, True), RULES[rule], mode)
    assert kept.error is None and kept.k == 30
    if (family, rule) == ("quadratic-simplex", "exact_ls") and algo != "gcs":
        _first_repeat(kept)  # the frozen steps read their probes from the memo


@pytest.mark.parametrize("mode", ["plain", "sharp"])
@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
def test_run_without_history_fails_at_the_same_row(algo, mode):
    """(h*)' raises at one point, the argument of its 15th call in a healthy
    run: with or without histories the run ends at the same row, with the
    same message"""
    spec = build("entropy-lse", True)
    seen = []

    def recording(w):
        seen.append(np.array(w, dtype=float).tobytes())
        return spec.h_conj_grad(w)

    _drive(algo, replace(spec, h_conj_grad=recording), start(spec)[:2], fd.ExactLineSearch(),
           mode=mode)
    trigger = seen[14]

    def failing(w):
        if np.asarray(w, dtype=float).tobytes() == trigger:
            raise ValueError("injected failure")
        return spec.h_conj_grad(w)

    kept = _assert_same_without_history(algo, replace(spec, h_conj_grad=failing),
                                        fd.ExactLineSearch(), mode)
    assert "injected failure" in kept.error and 0 < kept.k < 30


# ---------------------------------------------------------------------------
# trace storage: float64 arrays, 8 bytes a recorded value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("history", [True, False])
@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
def test_trace_columns_and_histories_are_float64_arrays(algo, history):
    """every column is a 1-D float64 array of length k; each history the driver
    fills is one (k + 1, dim) float64 array, empty without histories, and the
    others are empty; a run an oracle ended hands over its rows alike"""
    spec = build("quadratic-simplex", True)
    dims = {"xs": spec.dim_x, "us": spec.dim_y, "vs": spec.dim_y}
    healthy = _drive(algo, spec, start(spec)[:2], fd.FixedHarmonic(), history=history)
    aborted = _drive(algo, _wrapped(spec, "f_grad", 6, "nan")[0], start(spec)[:2],
                     fd.FixedHarmonic(), history=history)
    assert healthy.error is None and healthy.k == 30
    assert aborted.error is not None and 0 < aborted.k < 30
    for trace in (healthy, aborted):
        for name in _COLUMNS + ("t_ms",):
            column = getattr(trace, name)
            assert isinstance(column, np.ndarray) and column.dtype == np.float64, name
            assert column.shape == (trace.k,), name
        for name, dim in dims.items():
            rows = getattr(trace, name)
            assert isinstance(rows, np.ndarray) and rows.dtype == np.float64, name
            if history and name in _HISTORIES[algo]:
                assert rows.shape == (trace.k + 1, dim), name
            else:
                assert len(rows) == 0, name


def test_a_finished_trace_keeps_about_8_bytes_a_value():
    """under tracemalloc a finished run_hybrid trace at K = 2000, n = 3 holds at
    most 12 bytes per recorded value (seven columns of K and two histories of
    K + 1 rows of 3); a Python float per column entry takes 32 bytes, and an
    ndarray per iterate more than 100 for its 24 bytes of values"""
    spec = fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1]))
    x0 = np.eye(3)[0]

    def run():
        return fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 2000)

    run()  # one-off first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        trace = run()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert trace.error is None and trace.k == 2000
    values = 7 * 2000 + 2 * 2001 * 3
    assert kept <= 12 * values, kept / values


@st.composite
def holder_segments(draw):
    # a Hölder spec with the identity or a random A, a step from a point of the
    # simplex toward a vertex or another point of it, and the step sizes probed
    p = draw(st.sampled_from([1.1, 1.5, 2.0]) | st.floats(1.01, 2.0))
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = fd.random_linear_map(m, n, rng) if draw(st.booleans()) else None
    spec = fd.make_holder_power_simplex(p, n, a=a)
    base = rng.dirichlet(np.ones(n))
    target = np.eye(n)[rng.integers(n)] if draw(st.booleans()) else rng.dirichlet(np.ones(n))
    step = st.sampled_from([0.0, 1.0, 1e-9, 0.5]) | st.floats(0.0, 1.0)
    return spec, base, target, draw(st.lists(step, min_size=1, max_size=8)), draw(st.booleans())


@settings(derandomize=True, database=None, deadline=None)
@given(holder_segments())
def test_segment_increment_is_bregman_f_bit_for_bit(case):
    """the kernel's Bregman term from the base values a step holds (f' at the
    base, the step's oracle output; f at the base, carried from the row
    before or read at the first probe) is bregman_f's, bit for bit"""
    spec, base, target, alphas, carried = case
    A = spec.linmap.apply
    y0 = A(base)
    f0 = spec.f_val(y0) if carried else None
    seg = _Segment(spec, base, target, y0, _oracle_point(spec, "f_grad", y0), f0, 0.0)
    for a in alphas:
        got = seg.increment(a, False)
        comb = (1.0 - a) * base + a * target
        assert bits(got) == bits(fd.bregman_f(A(comb), A(base), spec))
        assert bits(seg.f) == bits(spec.f_val(A(comb)))
        assert seg.f0 == spec.f_val(y0)


@st.composite
def family_segments(draw):
    # a step of one of the five families, identity or random A, as the kernel
    # builds it at k >= 1: the primal side from a sampled x toward the oracle
    # target s, or hybrid's dual side from -u toward -z, each with its base
    # values carried as the row before leaves them
    seed = draw(st.integers(0, 2 ** 32 - 1))
    spec = build(draw(st.sampled_from(FAMILIES)), draw(st.booleans()), seed)
    rng = np.random.default_rng(seed)
    A, At = spec.linmap.apply, spec.linmap.adjoint
    x = spec.sample_x(rng)
    z = spec.f_grad(A(x))
    if draw(st.booleans()):
        s = spec.h_conj_grad(-At(z))
        return spec, x, s, A(x), z, spec.f_val(A(x)), spec.h_val(x)
    u = spec.f_grad(A(spec.sample_x(rng)))
    dual, w = fd.dualize(spec), -At(u)
    return dual, -u, -z, w, dual.f_grad(w), dual.f_val(w), dual.h_val(-u)


@settings(derandomize=True, database=None, deadline=None)
@given(family_segments())
def test_segment_increment_at_zero_is_zero(case):
    """the premise of the kernel's answer to a probe at step size 0: there the
    point is the base, and an evaluated increment is exactly 0, plain, and
    (0, 0), sharp, so the answer is the evaluation's, bit for bit"""
    spec, base, target, y0, g0, f0, h0 = case
    assert math.isfinite(h0)
    plain = _Segment(spec, base, target, y0, g0, f0, h0).increment(0.0, False)
    sharp = _Segment(spec, base, target, y0, g0, f0, h0).increment(0.0, True)
    assert bits(plain) == bits(0.0)
    assert bits(sharp) == bits([0.0, 0.0])


def test_segment_evaluates_again_after_a_call_that_raised():
    """a closed form that is +inf once, at a probed step size, raises there
    and leaves nothing to reuse: the next call, at that step size or at the
    one evaluated before it, evaluates afresh and gets the uncached value"""
    rng = np.random.default_rng(5)
    spec = fd.make_quadratic_simplex(b=0.3 * rng.standard_normal(4), n=3,
                                     a=fd.random_linear_map(4, 3, rng))
    A = spec.linmap.apply
    base, target = np.array([0.2, 0.3, 0.5]), np.array([0.0, 1.0, 0.0])
    y0 = A(base)
    calls = []

    def breg_f(y2, y1):  # +inf on its second call alone
        calls.append(y2)
        return math.inf if len(calls) == 2 else spec.breg_f(y2, y1)

    def want(a):
        return fd.bregman_f(A((1.0 - a) * base + a * target), y0, spec)

    for again in (0.5, 0.3):
        calls.clear()
        seg = _Segment(replace(spec, breg_f=breg_f), base, target, y0, spec.f_grad(y0),
                       spec.f_val(y0), 0.0)
        assert bits(seg.increment(0.3, False)) == bits(want(0.3))
        with pytest.raises(fd.InfiniteValue):
            seg.increment(0.5, False)
        assert bits(seg.increment(again, True)) == bits([want(again), want(again)])
        assert len(calls) == 3
