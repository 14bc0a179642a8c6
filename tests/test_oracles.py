"""Oracle-layer contracts: adjoint identity, Bregman distances, the joint
oracle step, and the duality gap."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import fenchelduo as fd
from reference_drivers import adjoint_defect, fenchel_young_defect

mpmath.mp.dps = 50


def mp_lse(values):
    return float(mpmath.log(mpmath.fsum(mpmath.e**mpmath.mpf(v) for v in values)))


def mp_softmax(values):
    denom = mpmath.fsum(mpmath.e**mpmath.mpf(v) for v in values)
    return [float(mpmath.e**mpmath.mpf(v) / denom) for v in values]


def lse_spec(n=2):
    return fd.make_entropy_lse(n, f_kind="lse")


class TestPointValidation:
    def test_rejects_nan(self):
        with pytest.raises(fd.DomainError):
            fd.as_point([1.0, float("nan")])

    def test_rejects_wrong_dim(self):
        with pytest.raises(fd.DomainError):
            fd.as_point([1.0, 2.0], dim=3)

    def test_rejects_matrix(self):
        with pytest.raises(fd.DomainError):
            fd.as_point(np.eye(2))

    def test_accepts_lists(self):
        p = fd.as_point([1, 2], dim=2)
        assert p.dtype == np.float64


class TestLinearMap:
    def test_adjoint_identity_random_maps(self):
        # <Ax, u> = <x, A*u> to 1e-12 relative on 100 probes
        rng = np.random.default_rng(0)
        for shape in [(3, 3), (5, 3), (2, 7)]:
            lm = fd.random_linear_map(*shape, rng)
            assert adjoint_defect(lm, np.random.default_rng(1), 100) <= 1e-12

    def test_adjoint_defect_bites(self):
        # negative control: an adjoint off by 1e-6 in every entry reads above the bound
        m = np.random.default_rng(0).standard_normal((5, 3))
        off = fd.LinearMap(apply=lambda x: m @ x, adjoint=lambda u: (m + 1e-6).T @ u,
                           dim_in=3, dim_out=5)
        assert adjoint_defect(off, np.random.default_rng(1), 100) > 1e-12

    def test_identity_map_is_passthrough(self):
        lm = fd.LinearMap.identity(4)
        x = np.arange(4.0)
        assert lm.apply(x) is x

    def test_from_matrix_dims(self):
        lm = fd.LinearMap.from_matrix([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        assert (lm.dim_in, lm.dim_out) == (3, 2)

    def test_rejects_nonfinite_matrix(self):
        with pytest.raises(fd.ConstructionError):
            fd.LinearMap.from_matrix([[np.inf, 0.0]])

    def test_rejects_one_dimensional_array(self):
        with pytest.raises(fd.ConstructionError, match=r"must be 2-D, got shape \(3,\)"):
            fd.LinearMap.from_matrix([1.0, 2.0, 3.0])


class TestBregmanF:
    def test_half_sq_norm(self):
        spec = fd.make_quadratic_simplex(n=2)
        assert fd.bregman_f(np.array([1.0, 1.0]), np.zeros(2), spec) == pytest.approx(1.0, abs=0)

    def test_zero_on_diagonal(self):
        spec = fd.make_quadratic_simplex(n=3)
        x = np.array([0.2, 0.5, 0.3])
        assert fd.bregman_f(x, x, spec) == 0.0

    def test_lse_value_against_high_precision(self):
        # D = lse(1,0) - lse(0,0) - <softmax(0,0), (1,0)>
        spec = lse_spec()
        got = fd.bregman_f(np.array([1.0, 0.0]), np.zeros(2), spec)
        want = mp_lse([1, 0]) - mp_lse([0, 0]) - mp_softmax([0, 0])[0]
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.12011, abs=5e-6)

    def test_default_formula_matches_closed_form(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((4, 4))
        spec = fd.make_quadratic_simplex(Q=(q + q.T) / 2 + 4 * np.eye(4), b=rng.standard_normal(4), n=4)
        bare = fd.ProblemSpec(
            f_val=spec.f_val, f_grad=spec.f_grad, f_conj_val=spec.f_conj_val,
            h_val=spec.h_val, h_conj_val=spec.h_conj_val, h_conj_grad=spec.h_conj_grad,
            linmap=spec.linmap,
        )
        for _ in range(20):
            y, x = rng.standard_normal(4), rng.standard_normal(4)
            np.testing.assert_allclose(fd.bregman_f(y, x, bare), fd.bregman_f(y, x, spec),
                                       rtol=1e-9, atol=1e-12)

    def test_infinite_value(self):
        ball = fd.ProblemSpec(
            f_val=lambda y: float(y @ y) if y @ y <= 1.0 else fd.oracles.INF,
            f_grad=lambda y: 2.0 * y,
            f_conj_val=lambda u: 0.25 * float(u @ u),
            h_val=lambda x: 0.0,
            h_conj_val=lambda w: 0.0 if np.all(w == 0) else fd.oracles.INF,
            h_conj_grad=lambda w: np.zeros_like(w),
            linmap=fd.LinearMap.identity(2),
        )
        with pytest.raises(fd.InfiniteValue):
            fd.bregman_f(np.array([3.0, 0.0]), np.zeros(2), ball)

    def test_domain_error_names_oracle(self):
        def bad_grad(y):
            raise ValueError("no subgradient here")

        spec = fd.ProblemSpec(
            f_val=lambda y: float(y @ y), f_grad=bad_grad, f_conj_val=lambda u: 0.0,
            h_val=lambda x: 0.0, h_conj_val=lambda w: 0.0,
            h_conj_grad=lambda w: np.zeros_like(w), linmap=fd.LinearMap.identity(2),
        )
        with pytest.raises(fd.DomainError, match="f_grad"):
            fd.bregman_f(np.ones(2), np.zeros(2), spec)


class TestBregmanHConj:
    def test_lse_affine_direction(self):
        # h* = lse is affine along the all-ones direction, so the distance is 0
        spec = lse_spec()
        got = fd.bregman_f(np.array([1.0, 1.0]), np.zeros(2), fd.dualize(spec))
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_zero_on_diagonal(self):
        spec = lse_spec()
        u = np.array([0.3, -0.7])
        assert fd.bregman_f(u, u, fd.dualize(spec)) == 0.0

    def test_support_function_kink(self):
        # h* = max_i with lowest-index LMO: D((0,1), (1,0)) = 1 - 1 + 1
        spec = fd.make_quadratic_simplex(n=2)
        got = fd.bregman_f(np.array([0.0, 1.0]), np.array([1.0, 0.0]), fd.dualize(spec))
        assert got == 1.0

    def test_nonnegative_on_probes(self):
        rng = np.random.default_rng(5)
        for spec in (lse_spec(3), fd.make_quadratic_simplex(n=3)):
            for _ in range(200):
                v, u = rng.standard_normal(3), rng.standard_normal(3)
                assert fd.bregman_f(v, u, fd.dualize(spec)) >= 0.0


def one_step(spec, x, u):
    """(s, z) of the joint oracle step at (x, u): the iterates of a hybrid run
    after its first step, a full one."""
    trace = fd.run_hybrid(spec, x, u, fd.FixedHarmonic(), 1)
    return trace.xs[1], trace.us[1]


class TestJointOracleStep:
    def test_simplex_quadratic(self):
        spec = fd.make_quadratic_simplex(n=2)
        s, z = one_step(spec, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(s, [0.0, 1.0])
        np.testing.assert_array_equal(z, [1.0, 0.0])

    def test_zero_covector_tie_break(self):
        spec = fd.make_quadratic_simplex(n=2)
        x = np.array([0.25, 0.75])
        s, z = one_step(spec, x, np.zeros(2))
        np.testing.assert_array_equal(s, [1.0, 0.0])
        np.testing.assert_array_equal(z, x)

    def test_swap_map(self):
        spec = fd.make_quadratic_simplex(Q=np.eye(2), n=2, a=[[0.0, 1.0], [1.0, 0.0]])
        _, z = one_step(spec, np.array([1.0, 0.0]), np.zeros(2))
        np.testing.assert_array_equal(z, [0.0, 1.0])

    def test_outputs_feasible(self):
        rng = np.random.default_rng(11)
        spec = fd.make_quadratic_simplex(Q=np.eye(4), b=rng.standard_normal(4), n=3,
                                         a=fd.random_linear_map(4, 3, rng))
        for _ in range(50):
            x = rng.dirichlet(np.ones(3))
            u = rng.standard_normal(4)
            s, z = one_step(spec, x, u)
            assert spec.h_val(s) == 0.0
            assert math.isfinite(spec.f_conj_val(z))


def duality_gap(x, u, spec):
    """f(Ax) + h(x) + f*(u) + h*(-A*u) from the raw oracles; +inf for an
    infeasible pair, nonnegative otherwise by weak duality."""
    A, At = spec.linmap.apply, spec.linmap.adjoint
    return float(spec.f_val(A(x)) + spec.h_val(x) + spec.f_conj_val(u) + spec.h_conj_val(-At(u)))


class TestDualityGap:
    def test_vertex_against_zero_certificate(self):
        spec = fd.make_quadratic_simplex(n=2)
        got = duality_gap(np.array([1.0, 0.0]), np.zeros(2), spec)
        assert got == pytest.approx(0.5, abs=0)

    def test_zero_at_saddle(self):
        # x* = u* = (1/2, 1/2); brute-force simplex grid confirms the optimum
        spec = fd.make_quadratic_simplex(n=2)
        t = np.linspace(0.0, 1.0, 20001)
        grid_min = np.min(0.5 * (t**2 + (1 - t) ** 2))
        assert grid_min == pytest.approx(0.25, abs=1e-8)
        star = np.array([0.5, 0.5])
        assert duality_gap(star, star, spec) == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_pair_is_infinite(self):
        spec = fd.make_quadratic_simplex(n=2)
        assert duality_gap(np.zeros(2), np.zeros(2), spec) == math.inf

    def test_weak_duality_on_random_feasible_pairs(self):
        rng = np.random.default_rng(2)
        spec = fd.make_quadratic_simplex(n=4)
        for _ in range(200):
            x = rng.dirichlet(np.ones(4))
            u = rng.standard_normal(4)
            assert duality_gap(x, u, spec) >= -1e-9


class TestFenchelYoung:
    def test_zero_at_oracle_outputs(self):
        rng = np.random.default_rng(9)
        for spec in (fd.make_quadratic_simplex(n=3), lse_spec(3),
                     fd.make_entropy_lse(3), fd.make_holder_power_simplex(1.5, 3)):
            for _ in range(100):
                y = rng.standard_normal(spec.dim_y)
                w = rng.standard_normal(spec.dim_x)
                assert fenchel_young_defect(spec, y, w) <= 1e-9

    def test_defect_bites(self):
        # negative control: f* off by 1e-6 reads above the bound at every probe
        rng = np.random.default_rng(9)
        spec = fd.make_entropy_lse(3)
        off = replace(spec, f_conj_val=lambda u: spec.f_conj_val(u) + 1e-6)
        for _ in range(100):
            y, w = rng.standard_normal(spec.dim_y), rng.standard_normal(spec.dim_x)
            assert fenchel_young_defect(spec, y, w) <= 1e-9
            assert fenchel_young_defect(off, y, w) > 1e-9
