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
                 fd.ApproxGamma(0.2)]
        for rule in rules:
            for k in range(0, 40, 7):
                a = rule.select(k, float(rng.random()), lambda t: 0.7 * t * t)
                assert 0.0 <= a <= 1.0
            assert rule.select(0, 1.0, lambda t: t * t) == 1.0


class TestSurrogateMinimizer:
    def test_closed_form_interior_minimum(self):
        # phi(a) = (1-a) + a^2 has its minimum at 1/2 with value 3/4
        a, val, warned = steps._minimize_step_surrogate(1.0, lambda t: t * t)
        assert not warned
        assert a == pytest.approx(0.5, abs=1e-10)
        assert val == pytest.approx(0.75, abs=1e-12)

    def test_clipped_to_one(self):
        # unconstrained minimizer 3/2 clips to the right endpoint
        a, val, _ = steps._minimize_step_surrogate(3.0, lambda t: t * t)
        assert a == 1.0
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_gap_stays_put(self):
        a, val, _ = steps._minimize_step_surrogate(0.0, lambda t: 0.4 * t ** 1.5)
        assert a == 0.0
        assert val == 0.0

    def test_hundred_random_instances_beat_grid(self):
        rng = np.random.default_rng(123)
        grid = np.linspace(0.0, 1.0, 10**4)
        for _ in range(100):
            gap = float(rng.uniform(0.05, 10.0))
            curv = float(rng.uniform(0.05, 10.0))
            a, val, _ = steps._minimize_step_surrogate(gap, lambda t, c=curv: 0.5 * c * t * t)
            grid_min = float(np.min((1.0 - grid) * gap + 0.5 * curv * grid**2))
            assert val <= grid_min + 1e-8

    def test_never_worse_than_zero_step(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gap = float(rng.uniform(0.0, 2.0))
            p = float(rng.uniform(1.1, 2.0))
            c = float(rng.uniform(0.01, 20.0))
            a, val, _ = steps._minimize_step_surrogate(gap, lambda t, c=c, p=p: c * t ** p)
            assert val <= gap + 1e-14

    def test_everywhere_infinite_returns_zero_with_warning(self, caplog):
        def d_fun(t):
            if t > 0.0:
                raise fd.InfiniteValue("outside the domain")
            return 0.0

        with caplog.at_level(logging.WARNING, logger="fenchelduo"):
            a, val, warned = steps._minimize_step_surrogate(1.0, d_fun)
        assert (a, warned) == (0.0, True)
        assert any("line search" in r.message for r in caplog.records)

    def test_partially_infinite_shrinks_bracket(self):
        def d_fun(t):
            if t > 0.3:
                raise fd.InfiniteValue("left the domain")
            return t * t

        a, val, warned = steps._minimize_step_surrogate(1.0, d_fun)
        assert not warned
        assert 0.0 < a <= 0.3
        assert val <= 1.0


class TestApproxGamma:
    def test_schedule_formula(self):
        # with an exactly quadratic divergence the selected exponent is ~2
        d = lambda t: 3.0 * t * t
        a = fd.ApproxGamma(delta=0.1).select(1, 1.0, d)
        assert 1.95 / (1 + 1.95) - 1e-9 <= a <= 2.0 / 3.0 + 1e-9

    def test_power_15_lands_near_06(self):
        d = lambda t: 0.8 * t ** 1.5
        a = fd.ApproxGamma(delta=0.1).select(1, 1.0, d)
        # exponent in [1.45, 1.5] -> alpha in [0.5918.., 0.6]
        assert 1.45 / 2.45 - 1e-9 <= a <= 0.6 + 1e-9

    def test_exponent_never_overshoots_on_quadratic(self):
        d = lambda t: 0.5 * t * t
        for k in (1, 5, 50, 500):
            a = fd.ApproxGamma(delta=0.1).select(k, 1.0, d)
            assert a <= 2.0 / (k + 2.0) + 1e-12
            assert a >= 1.9 / (k + 1.9) - 1e-12

    def test_zero_divergence_accepts_max_exponent(self):
        a = fd.ApproxGamma(delta=0.2).select(3, 1.0, lambda t: 0.0)
        assert a == pytest.approx(4.0 / 7.0, rel=1e-12)

    def test_delta_validated(self):
        with pytest.raises(fd.RangeError):
            fd.ApproxGamma(delta=0.0)
        with pytest.raises(fd.RangeError):
            fd.ApproxGamma(delta=1.5)

    def test_collapsed_bracket_falls_back_to_line_search(self):
        # a concave-in-alpha divergence rejects every exponent probe >= 1
        d = lambda t: t ** 0.5
        a = fd.ApproxGamma(delta=0.1).select(2, 1.0, d)
        direct = steps._minimize_step_surrogate(1.0, d)[0]
        assert a == pytest.approx(direct, abs=1e-12)
