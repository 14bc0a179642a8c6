"""Step rules: the schedules and the surrogate minimizer of the exact line
search."""

import logging
import math

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
        assert rule.select(1, 1.0, None) == pytest.approx(0.6, abs=0)
        # gamma / (0 + gamma) is exactly 1 for every positive finite gamma
        for gamma in (5e-324, 1e-300, 0.5, 1.5, 2.0, 1e300, 1.7976931348623157e308):
            for k in (0, np.int64(0)):
                assert fd.OpenLoop(gamma).select(k, 1.0, None) == 1.0

    def test_open_loop_validates_gamma(self):
        with pytest.raises(fd.RangeError):
            fd.OpenLoop(gamma=0.0)

    def test_rules_emit_unit_interval(self):
        rng = np.random.default_rng(0)
        rules = [fd.FixedHarmonic(), fd.OpenLoop(3.0), fd.ExactLineSearch()]
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

    @pytest.mark.parametrize("p, c, gap", [(1.5, 0.8, 1.0), (2.0, 3.0, 1.0),
                                           (3.0, 2.0, 0.5)])
    def test_power_surrogate_interior_minimum(self, p, c, gap):
        # phi(a) = (1-a) gap + c a^p is least where c p a^(p-1) = gap
        a, _ = _minimize(gap, lambda t: c * t ** p)
        assert a == pytest.approx((gap / (c * p)) ** (1.0 / (p - 1.0)), abs=1e-9)

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


# Step size and d_fun arguments of the golden search on four surrogates that
# are not parabolas, recorded from the search before it had a parabola
# shortcut: the fallback must reproduce them.
_GOLDEN_PATHS = {
    "cubic": (0.4699508581414715, [
        0.0, 1.0, 0.3819660112501051, 0.6180339887498949, 0.2360679774997897,
        0.47213595499957944, 0.5278640450004206, 0.4376941012509463, 0.49342219125178755,
        0.4589803375031545, 0.4802665737553627, 0.46711095625893784, 0.4752415750147212,
        0.4702165762740797, 0.4690303349844375, 0.4709497137099372, 0.4697634724202949,
        0.4694834388382223, 0.46993654269200713, 0.4700435060023675, 0.4698704357306553,
        0.4699773990410156, 0.4699112920796637, 0.46995214842867217, 0.4699617933043506,
        0.4699461875676856, 0.46995583244336403, 0.4699498715823775, 0.46994846441398025,
        0.4699507412602749, 0.46995127875077475, 0.46995040907287733, 0.4699509465633772,
        0.4699508581414715, 0.4699508580388625, 0.4699508971410297, 0.4699508765715021,
        0.46995086710552236, 0.46995086257219243, 0.46995086030552746, 0.469950859172195
    ]),
    "kink": (0.29999999889250917, [
        0.0, 1.0, 0.3819660112501051, 0.6180339887498949, 0.2360679774997897,
        0.47213595499957944, 0.32623792124926393, 0.29179606750063086, 0.2705098312484227,
        0.3049516849970557, 0.3130823037528391, 0.2999266862564142, 0.29682106624127236,
        0.30184606498191385, 0.298740444966772, 0.3006598236922716, 0.2994735824026294,
        0.3002067198384868, 0.30037979011019905, 0.3000997565281265, 0.3000336495667746,
        0.2999927932177661, 0.2999675426054227, 0.30000839895443115, 0.3000180438301096,
        0.30000243809344457, 0.2999987540787527, 0.30000471493973924, 0.3000010309250474,
        0.30000016124714995, 0.2999996237566501, 0.30000049343454754, 0.29999995594404766,
        0.3000001450977749, 0.3000000447137083, 0.30000004726430135, 0.3000000229885148,
        0.30000001696487294, 0.3000000083689869, 0.30000000359036677, 0.29999999889250917
    ]),
    "lse": (0.27465307234332326, [
        0.0, 1.0, 0.3819660112501051, 0.6180339887498949, 0.2360679774997897,
        0.1458980337503154, 0.29179606750063086, 0.32623792124926393, 0.2705098312484227,
        0.25735421375199785, 0.278640450004206, 0.2836654487448475, 0.2755348299890642,
        0.27361545126356457, 0.2767210712787064, 0.2748016925532068, 0.27434858869942197,
        0.27508172613527937, 0.27462862228149454, 0.27452165897113423, 0.27469472924284644,
        0.2745877659324861, 0.274653872893838, 0.274669478630503, 0.2746442280181595,
        0.27465983375482456, 0.2746501888791461, 0.27465614974013264, 0.2746524657254408,
        0.27465159604754336, 0.2746530032159406, 0.2746533354033382, 0.2746527979128383,
        0.27465307234332326, 0.27465307252715837, 0.27465304288726256, 0.2746530585673375,
        0.2746530657240067, 0.2746530692126632, 0.27465307086991075, 0.274653071606617
    ]),
    "dip": (0.4999999365585342, [
        0.0, 1.0, 0.3819660112501051, 0.6180339887498949, 0.2360679774997897,
        0.47213595499957944, 0.5278640450004206, 0.4376941012509463, 0.49342219125178755,
        0.5065778087482125, 0.4852915724960043, 0.4984471899924291, 0.5015528100075709,
        0.4965278112669294, 0.49963343128207127, 0.5003665687179287, 0.4991803274282865,
        0.4999134648641439, 0.5000865351358561, 0.49980650155378353, 0.49997957182549574,
        0.5000204281745042, 0.4999543212131523, 0.4999951775621608, 0.5000048224378392,
        0.5000107832988258, 0.5000011384231473, 0.49999886157685264, 0.49999745440845544,
        0.49999973125475006, 0.5000002687452499, 0.4999993990673525, 0.4999999365578524,
        0.4999999365585342
    ]),
}

_NOT_PARABOLAS = {
    "cubic": (1.0, lambda a: 0.5 * a * a + 0.8 * a ** 3),
    "kink": (0.5, lambda a: abs(a - 0.3)),
    "lse": (1.0, lambda a: math.log(0.5 * (math.exp(3.0 * a) + math.exp(-a))) - a),
    # a parabola with vertex 1/2 at 0, 1 - G, G and 1, dipping below it at 1/2
    "dip": (1.0, lambda a: a * a - 0.05 * max(0.0, 0.1 - abs(a - 0.5))),
}


class TestParabolaShortcut:
    def test_random_quadratics_take_the_vertex(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            gap = float(rng.uniform(0.01, 10.0))
            c = float(np.exp(rng.uniform(-3.0, 3.0)))
            a, calls = _counted_search(gap, lambda t, c=c: c * t * t)
            assert abs(a - min(1.0, gap / (2.0 * c))) <= 1e-12, (gap, c)
            assert len(calls) <= 5
            assert calls[:4] == [0.0, 1.0, 1.0 - steps._GOLDEN, steps._GOLDEN]

    @pytest.mark.parametrize("name", ["cubic", "kink", "lse"])
    def test_other_surrogates_keep_the_golden_path(self, name):
        gap, surrogate = _NOT_PARABOLAS[name]
        assert _counted_search(gap, surrogate) == _GOLDEN_PATHS[name]

    def test_mismatch_at_the_vertex_falls_back(self):
        # one extra probe, at the vertex, then the same golden path
        gap, surrogate = _NOT_PARABOLAS["dip"]
        a, calls = _counted_search(gap, surrogate)
        want_a, want_calls = _GOLDEN_PATHS["dip"]
        assert abs(calls[4] - 0.5) <= 1e-12
        assert (a, calls[:4] + calls[5:]) == (want_a, want_calls)

    def test_halved_bracket_keeps_its_path(self):
        # the right end halves to 1/2, so the shortcut never runs
        a, calls = _counted_search(1.0, lambda t: 2.0 * t * t, cut=0.6)
        assert (a, len(calls)) == (0.2500000001032374, 35)
        assert calls[:4] == [0.0, 1.0, 0.5, 0.19098300562505255]

    def test_give_up_keeps_its_path(self):
        a, calls = _counted_search(1.0, lambda t: t * t, cut=-1.0)
        assert (a, len(calls)) == (0.0, 49)

