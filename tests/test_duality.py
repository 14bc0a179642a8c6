"""Dual-spec construction and the two run-equivalence checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

import fenchelduo as fd
from fenchelduo.duality import _deviation
from reference_drivers import adjoint_defect, fenchel_young_defect
from test_reference_drivers import FAMILIES, build, start


def quad_simplex():
    return fd.make_quadratic_simplex(n=2)


def tilted_entropy():
    return fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))


def general_a_problem(seed=7):
    rng = np.random.default_rng(seed)
    return fd.make_quadratic_simplex(Q=np.eye(5), b=rng.standard_normal(5) * 0.4,
                                     n=3, a=fd.random_linear_map(5, 3, rng))


class TestDualize:
    def test_quadratic_simplex_roles(self):
        # dual smooth role = support function, dual nonsmooth role = 0.5||.||^2
        spec = quad_simplex()
        dual = fd.dualize(spec)
        w = np.array([0.4, -1.2])
        assert dual.f_val(w) == spec.h_conj_val(w) == 0.4
        assert dual.h_val(w) == pytest.approx(0.5 * float(w @ w), rel=1e-15)
        np.testing.assert_array_equal(dual.h_conj_grad(w), -spec.f_grad(-w))

    def test_identity_map_dual_gradient(self):
        spec = quad_simplex()
        dual = fd.dualize(spec)
        v = np.array([0.3, 0.9])
        np.testing.assert_array_equal(dual.f_grad(v), spec.h_conj_grad(v))

    def test_dual_map_swaps_dims(self):
        spec = general_a_problem()
        dual = fd.dualize(spec)
        assert (dual.dim_x, dual.dim_y) == (spec.dim_y, spec.dim_x)
        rng = np.random.default_rng(0)
        assert adjoint_defect(dual.linmap, rng, 50) <= 1e-12

    def test_double_dual_reproduces_objective(self):
        # dual-of-dual equals the primal composed with negation on both sides
        for spec in (tilted_entropy(), quad_simplex()):
            dd = fd.dualize(fd.dualize(spec))
            rng = np.random.default_rng(5)
            for _ in range(10):
                x = rng.dirichlet(np.ones(spec.dim_x))
                primal = spec.f_val(spec.linmap.apply(x)) + spec.h_val(x)
                mirrored = dd.f_val(dd.linmap.apply(-x)) + dd.h_val(-x)
                assert mirrored == pytest.approx(primal, rel=1e-9, abs=1e-12)

    def test_double_dual_oracles_on_probes(self):
        spec = tilted_entropy()
        dd = fd.dualize(fd.dualize(spec))
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = rng.standard_normal(spec.dim_x)
            np.testing.assert_allclose(dd.h_conj_grad(w), -spec.h_conj_grad(-w),
                                       rtol=1e-12, atol=1e-15)
            assert dd.f_conj_val(w) == pytest.approx(spec.f_conj_val(-w), rel=1e-12)
            y = rng.standard_normal(spec.dim_y)
            assert dd.f_val(y) == pytest.approx(spec.f_val(-y), rel=1e-12)

    def test_dual_satisfies_oracle_contracts(self):
        for spec in (quad_simplex(), tilted_entropy(), general_a_problem()):
            dual = fd.dualize(spec)
            rng = np.random.default_rng(8)
            for _ in range(100):
                y = rng.standard_normal(dual.dim_y)
                w = rng.standard_normal(dual.dim_x)
                assert fenchel_young_defect(dual, y, w) <= 1e-9

    def test_missing_oracle_rejected(self):
        spec = quad_simplex()
        crippled = fd.ProblemSpec(
            f_val=spec.f_val, f_grad=spec.f_grad, f_conj_val=spec.f_conj_val,
            h_val=spec.h_val, h_conj_val=None, h_conj_grad=spec.h_conj_grad,
            linmap=spec.linmap,
        )
        with pytest.raises(fd.ConstructionError):
            fd.dualize(crippled)


class TestBachEquivalence:
    def test_identity_map(self):
        assert fd.check_bach_equivalence(quad_simplex(), [1.0, 0.0],
                                         fd.FixedHarmonic(), 50) <= 1e-12

    def test_entropy(self):
        assert fd.check_bach_equivalence(tilted_entropy(), [1.0, 0.0, 0.0],
                                         fd.FixedHarmonic(), 50) <= 1e-12

    def test_general_map(self):
        assert fd.check_bach_equivalence(general_a_problem(), [1.0, 0.0, 0.0],
                                         fd.FixedHarmonic(), 20) <= 1e-12

    def test_random_3x2_map(self):
        rng = np.random.default_rng(11)
        spec = fd.make_quadratic_simplex(Q=np.eye(3), n=2, a=fd.random_linear_map(3, 2, rng))
        assert fd.check_bach_equivalence(spec, [1.0, 0.0], fd.FixedHarmonic(), 20) <= 1e-12

    def test_first_step_mapping(self):
        spec = quad_simplex()
        primal = fd.run_gcs(spec, [1.0, 0.0], fd.FixedHarmonic(), 1)
        dual = fd.run_gmd(fd.dualize(spec), [-1.0, 0.0], fd.FixedHarmonic(), 1)
        np.testing.assert_array_equal(dual.vs[1], -primal.xs[1])

    def test_open_loop_is_accepted(self):
        assert fd.check_bach_equivalence(quad_simplex(), [1.0, 0.0],
                                         fd.OpenLoop(3.0), 25) <= 1e-12


class TestHybridSymmetry:
    def test_quadratic_simplex(self):
        assert fd.check_hybrid_symmetry(quad_simplex(), [1.0, 0.0], [1.0, 0.0],
                                        fd.FixedHarmonic(), 30) <= 1e-12

    def test_entropy(self):
        spec = tilted_entropy()
        x0 = np.array([1.0, 0.0, 0.0])
        assert fd.check_hybrid_symmetry(spec, x0, spec.f_grad(x0),
                                        fd.FixedHarmonic(), 30) <= 1e-12

    def test_general_map(self):
        spec = general_a_problem()
        x0 = np.array([1.0, 0.0, 0.0])
        u0 = spec.f_grad(spec.linmap.apply(x0))
        assert fd.check_hybrid_symmetry(spec, x0, u0, fd.FixedHarmonic(), 30) <= 1e-12

    def test_first_step_mapping(self):
        spec = quad_simplex()
        here = fd.run_hybrid(spec, [1.0, 0.0], [1.0, 0.0], fd.FixedHarmonic(), 1)
        there = fd.run_hybrid(fd.dualize(spec), [-1.0, 0.0], [1.0, 0.0],
                              fd.FixedHarmonic(), 1)
        np.testing.assert_array_equal(there.xs[1], -here.us[1])
        np.testing.assert_array_equal(there.us[1], here.xs[1])


@pytest.mark.parametrize("rule", [fd.ExactLineSearch(), fd.OpenLoop(3.0)],
                         ids=["exact_ls", "open_loop_3"])
@pytest.mark.parametrize("general", [False, True], ids=["identity", "random-A"])
@pytest.mark.parametrize("family", FAMILIES)
def test_equivalences_hold_under_any_rule(family, general, rule):
    """no rule is refused: each check's two runs present a line search the
    same (k, gap, d_fun) up to sign, so both deviations stay at rounding"""
    spec = build(family, general)
    x0, u0, _ = start(spec)
    assert fd.check_bach_equivalence(spec, x0, rule, 40) <= 1e-12
    assert fd.check_hybrid_symmetry(spec, x0, u0, rule, 40) <= 1e-12


def failing_gradient(spec):
    """``spec`` whose f' raises: every run on it aborts at its first step."""
    def f_grad(y):
        raise ValueError("injected")
    return replace(spec, f_grad=f_grad)


@pytest.mark.parametrize("check, starts", [
    (fd.check_bach_equivalence, ([1.0, 0.0],)),
    (fd.check_hybrid_symmetry, ([1.0, 0.0], [1.0, 0.0])),
], ids=["bach", "symmetry"])
def test_aborted_primal_run_is_construction_error(check, starts):
    with pytest.raises(fd.ConstructionError,
                       match="primal run aborted: oracle f_grad failed: injected"):
        check(failing_gradient(quad_simplex()), *starts, fd.FixedHarmonic(), 5)


def test_weak_duality_across_paired_runs():
    """any dual-run certificate lower-bounds any primal-run objective value"""
    spec = tilted_entropy()
    primal = fd.run_gcs(spec, [1.0, 0.0, 0.0], fd.FixedHarmonic(), 40)
    dual_run = fd.run_gmd(fd.dualize(spec), -np.array([1.0, 0.0, 0.0]),
                          fd.FixedHarmonic(), 40)
    At = spec.linmap.adjoint
    primal_vals = [spec.f_val(spec.linmap.apply(x)) + spec.h_val(x) for x in primal.xs[1:]]
    # a dual-run mirror point y', the dual spec's (h*)'(A* v'), corresponds to the
    # certificate u = -y'
    dual = fd.dualize(spec)
    dual_vals = []
    for y in (dual.h_conj_grad(dual.linmap.adjoint(v)) for v in dual_run.vs[:-1]):
        u = -y
        dual_vals.append(-(spec.f_conj_val(u) + spec.h_conj_val(-At(u))))
    assert max(dual_vals) <= min(primal_vals) + 1e-9


def test_deviation_is_the_max_over_stacked_histories():
    """row by row, the deviation is the max of |a + sign * b| over the stacked
    (K + 1) x n histories, bit for bit"""
    here = fd.run_hybrid(general_a_problem(), [1.0, 0.0, 0.0], np.full(5, 0.1),
                         fd.FixedHarmonic(), 40)
    there = fd.run_hybrid(general_a_problem(3), [0.0, 1.0, 0.0], np.full(5, -0.2),
                          fd.FixedHarmonic(), 40)
    pairings = ((there.xs, here.xs, 1.0), (there.us, here.us, -1.0))
    stacked = max(float(np.abs(np.asarray(a) + sign * np.asarray(b)).max())
                  for a, b, sign in pairings)
    assert _deviation(*pairings) == stacked > 0.0


@pytest.mark.parametrize("pairing", [0, 1])
def test_deviation_keeps_a_nan(pairing):
    """a NaN in a late row of either pairing is the deviation, which fails
    every tolerance; a Python max over the pairings would drop one that
    follows a number"""
    rows = [np.array([0.5, -0.5]), np.array([0.25, 0.0]), np.array([0.0, 1.0])]
    pairings = [(rows, rows, -1.0), (rows, rows, -1.0)]
    pairings[pairing] = (rows[:2] + [np.array([np.nan, 1.0])], rows, -1.0)
    deviation = _deviation(*pairings)
    assert math.isnan(deviation), deviation
