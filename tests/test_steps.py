"""Step rules: schedules, the surrogate minimizer, and the approximate
curvature-exponent selection."""

import logging

import numpy as np
import pytest

import fenchelduo as fd
from fenchelduo import steps


class TestSchedules:
    def test_fixed_harmonic_values(self):
        assert fd.FixedHarmonic().select(0, 1.0, None) == 1.0
        assert fd.FixedHarmonic().select(1, 1.0, None) == pytest.approx(2.0 / 3.0, rel=1e-16)
        assert fd.FixedHarmonic().select(98, 1.0, None) == pytest.approx(0.02, abs=0)

    def test_open_loop_schedule(self):
        rule = fd.OpenLoop(gamma=1.5)
        assert rule.select(0, 1.0, None) == 1.0
        assert rule.select(1, 1.0, None) == pytest.approx(0.6, abs=0)

    def test_open_loop_validates_gamma(self):
        with pytest.raises(fd.RangeError):
            fd.OpenLoop(gamma=0.0)

    def test_rules_emit_unit_interval(self):
        rng = np.random.default_rng(0)
        rules = [fd.FixedHarmonic(), fd.OpenLoop(3.0), fd.ExactLineSearch(),
                 fd.ApproxGamma()]
        for rule in rules:
            for k in range(0, 40, 7):
                a = rule.select(k, float(rng.random()), lambda t: 0.7 * t * t)
                assert 0.0 <= a <= 1.0
            assert rule.select(0, 1.0, lambda t: t * t) == 1.0


def _minimize(gap, d_fun):
    # the minimizer's step size and the surrogate value phi there
    a = steps._minimize_step_surrogate(gap, d_fun)
    return a, (1.0 - a) * gap + d_fun(a)


class TestSurrogateMinimizer:
    def test_closed_form_interior_minimum(self):
        # phi(a) = (1-a) + a^2 has its minimum at 1/2 with value 3/4
        a, val = _minimize(1.0, lambda t: t * t)
        assert a == pytest.approx(0.5, abs=1e-10)
        assert val == pytest.approx(0.75, abs=1e-12)

    def test_clipped_to_one(self):
        # unconstrained minimizer 3/2 clips to the right endpoint
        a, val = _minimize(3.0, lambda t: t * t)
        assert a == 1.0
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_gap_stays_put(self):
        a, val = _minimize(0.0, lambda t: 0.4 * t ** 1.5)
        assert a == 0.0
        assert val == 0.0

    def test_hundred_random_instances_beat_grid(self):
        rng = np.random.default_rng(123)
        grid = np.linspace(0.0, 1.0, 10**4)
        for _ in range(100):
            gap = float(rng.uniform(0.05, 10.0))
            curv = float(rng.uniform(0.05, 10.0))
            a, val = _minimize(gap, lambda t, c=curv: 0.5 * c * t * t)
            grid_min = float(np.min((1.0 - grid) * gap + 0.5 * curv * grid**2))
            assert val <= grid_min + 1e-8

    def test_never_worse_than_zero_step(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gap = float(rng.uniform(0.0, 2.0))
            p = float(rng.uniform(1.1, 2.0))
            c = float(rng.uniform(0.01, 20.0))
            a, val = _minimize(gap, lambda t, c=c, p=p: c * t ** p)
            assert val <= gap + 1e-14

    def test_everywhere_infinite_returns_zero_with_warning(self, caplog):
        def d_fun(t):
            if t > 0.0:
                raise fd.InfiniteValue("outside the domain")
            return 0.0

        with caplog.at_level(logging.WARNING, logger="fenchelduo"):
            a = steps._minimize_step_surrogate(1.0, d_fun)
        assert a == 0.0
        assert [r.message for r in caplog.records if r.levelno == logging.WARNING] == [
            "line search: surrogate non-finite on all of (0, 1]; stepping 0"]

    def test_partially_infinite_shrinks_bracket(self, caplog):
        def d_fun(t):
            if t > 0.3:
                raise fd.InfiniteValue("left the domain")
            return t * t

        with caplog.at_level(logging.WARNING, logger="fenchelduo"):
            a, val = _minimize(1.0, d_fun)
        assert not caplog.records
        assert 0.0 < a <= 0.3
        assert val <= 1.0


def _counted_search(gap, surrogate, cut=None):
    # the step size, and the points d_fun was called at (+inf above ``cut``)
    calls = []

    def d_fun(t):
        calls.append(t)
        if cut is not None and t > cut:
            raise fd.InfiniteValue("outside the domain")
        return surrogate(t)

    return steps._minimize_step_surrogate(gap, d_fun), calls


class TestSearchLength:
    """Each stage of the search ends by construction: at most 59 calls of d_fun."""

    def test_everywhere_infinite_gives_up_after_49_calls(self):
        a, calls = _counted_search(1.0, lambda t: 0.0, cut=-1.0)
        assert a == 0.0
        assert calls == [0.0] + [2.0 ** -j for j in range(48)]

    def test_infinite_above_1e_14_halves_47_times(self):
        a, calls = _counted_search(1.0, lambda t: t * t, cut=1e-14)
        assert calls[:49] == [0.0] + [2.0 ** -j for j in range(48)]
        assert 0.0 < a <= 2.0 ** -47
        assert len(calls) <= 59

    @pytest.mark.parametrize("cut", [None, 0.3, 1e-3, 1e-9, 1e-14])
    @pytest.mark.parametrize("surrogate", [lambda t: 0.7 * t * t, lambda t: abs(0.3 - t),
                                           lambda t: 2.0 * t ** 1.5, lambda t: t ** 3.0],
                             ids=["quadratic", "kink", "power-1.5", "power-3"])
    def test_at_most_59_calls(self, surrogate, cut):
        for gap in (0.0, 1e-3, 0.5, 2.0, 40.0):
            a, calls = _counted_search(gap, surrogate, cut)
            assert 0.0 <= a <= 1.0
            assert len(calls) <= 59


class TestApproxGamma:
    def test_schedule_formula(self):
        # with an exactly quadratic divergence the selected exponent is ~2
        d = lambda t: 3.0 * t * t
        a = fd.ApproxGamma().select(1, 1.0, d)
        assert 1.95 / (1 + 1.95) - 1e-9 <= a <= 2.0 / 3.0 + 1e-9

    def test_power_15_lands_near_06(self):
        d = lambda t: 0.8 * t ** 1.5
        a = fd.ApproxGamma().select(1, 1.0, d)
        # exponent in [1.45, 1.5] -> alpha in [0.5918.., 0.6]
        assert 1.45 / 2.45 - 1e-9 <= a <= 0.6 + 1e-9

    def test_exponent_never_overshoots_on_quadratic(self):
        d = lambda t: 0.5 * t * t
        for k in (1, 5, 50, 500):
            a = fd.ApproxGamma().select(k, 1.0, d)
            assert a <= 2.0 / (k + 2.0) + 1e-12
            assert a >= 1.9 / (k + 1.9) - 1e-12

    def test_zero_divergence_accepts_max_exponent(self):
        a = fd.ApproxGamma().select(3, 1.0, lambda t: 0.0)
        assert a == pytest.approx(4.0 / 7.0, rel=1e-12)

    def test_collapsed_bracket_falls_back_to_line_search(self):
        # a concave-in-alpha divergence rejects every exponent probe >= 1
        d = lambda t: t ** 0.5
        a = fd.ApproxGamma().select(2, 1.0, d)
        direct = steps._minimize_step_surrogate(1.0, d)
        assert a == pytest.approx(direct, abs=1e-12)
