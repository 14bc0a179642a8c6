"""The package drivers against the literal reference loops in
``reference_drivers.py``: every recorded column, iterate history and
certificate must agree bit for bit, and the equivalence checks must hold
when one side of them runs the reference loops.  The package's dual side,
the primal side of ``dualize(spec)``, must agree bit for bit with the
hand-mirrored dual-side functions kept there, and so must the per-step terms
of its mirror-descent replay."""

import numpy as np
import pytest

import fenchelduo as fd
from fenchelduo import certificates, duality

from reference_drivers import (
    bregman_hconj,
    ref_md_identity_residuals,
    ref_md_identity_terms,
    ref_run_gcs,
    ref_run_gmd,
    ref_run_hybrid,
    step_divergence_dual,
    step_divergence_primal,
)

K = 60
FAMILIES = ("quadratic-simplex", "quadratic-box", "quadratic-l1", "entropy-lse",
            "holder-power-simplex")
RULES = {
    "fixed_harmonic": fd.FixedHarmonic(),
    "open_loop_1.5": fd.OpenLoop(1.5),
    "exact_ls": fd.ExactLineSearch(),
}
COLUMNS = ("alphas", "gap_plain", "gap_sharp", "true_gap", "residual", "primal", "dual")
HISTORIES = ("xs", "us", "vs")


def build(family, general, seed=3):
    rng = np.random.default_rng(seed)
    n = 3
    a = fd.random_linear_map(4, n, rng) if general else None
    m = 4 if general else n
    b = rng.standard_normal(m) * 0.5
    if family == "quadratic-simplex":
        return fd.make_quadratic_simplex(b=b, n=n, a=a)
    if family == "quadratic-box":
        return fd.make_quadratic_box(b=b, n=n, a=a)
    if family == "quadratic-l1":
        return fd.make_quadratic_l1_ball(b=b, n=n, a=a)
    if family == "entropy-lse":
        return fd.make_entropy_lse(n, a=a, b=b)
    return fd.make_holder_power_simplex(1.5, n, a=a)


def start(spec):
    x0 = np.asarray(spec.h_conj_grad(np.zeros(spec.dim_x)), dtype=float)
    u0 = np.asarray(spec.f_grad(spec.linmap.apply(x0)), dtype=float)
    v0 = np.linspace(-0.3, 0.2, spec.dim_y)
    return x0, u0, v0


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_same_run(got, want):
    assert got.error == want.error
    assert (got.algo, got.mode) == (want.algo, want.mode)
    for name in COLUMNS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    for name in HISTORIES:
        g, w = getattr(got, name), getattr(want, name)
        assert len(g) == len(w), name
        for i, (gi, wi) in enumerate(zip(g, w)):
            assert bits(gi) == bits(wi), f"{name}[{i}]"
    if want.certificate is None:
        assert got.certificate is None
    else:
        assert bits(got.certificate) == bits(want.certificate)


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("general", [False, True], ids=["identity", "random-A"])
@pytest.mark.parametrize("family", FAMILIES)
def test_drivers_match_reference_loops(family, general, rule):
    spec = build(family, general)
    x0, u0, v0 = start(spec)
    step = RULES[rule]
    for mode in ("plain", "sharp"):
        assert_same_run(fd.run_gcs(spec, x0, step, K, mode=mode),
                        ref_run_gcs(spec, x0, step, K, mode=mode))
        assert_same_run(fd.run_gmd(spec, v0, step, K, mode=mode),
                        ref_run_gmd(spec, v0, step, K, mode=mode))
        assert_same_run(fd.run_hybrid(spec, x0, u0, step, K, mode=mode),
                        ref_run_hybrid(spec, x0, u0, step, K, mode=mode))


@pytest.mark.parametrize("general", [False, True], ids=["identity", "random-A"])
@pytest.mark.parametrize("family", FAMILIES)
def test_equivalence_checks_against_reference_loops(family, general, monkeypatch):
    """gcs on P against the reference mirror-descent loop on dualize(P), and
    the reference symmetric loop against itself across dualization"""
    spec = build(family, general)
    x0, u0, _ = start(spec)
    monkeypatch.setattr(duality, "run_gmd", ref_run_gmd)
    monkeypatch.setattr(duality, "run_hybrid", ref_run_hybrid)
    assert fd.check_bach_equivalence(spec, x0, fd.FixedHarmonic(), 50) <= 1e-12
    assert fd.check_hybrid_symmetry(spec, x0, u0, fd.FixedHarmonic(), 30) <= 1e-12


@pytest.mark.parametrize("general", [False, True], ids=["identity", "random-A"])
@pytest.mark.parametrize("family", FAMILIES)
def test_dual_side_is_primal_side_of_dualize(family, general, monkeypatch):
    spec = build(family, general)
    dual = fd.dualize(spec)
    rng = np.random.default_rng(11)
    for i in range(60):
        v, u = rng.standard_normal((2, spec.dim_x))
        assert bits(fd.bregman_f(v, u, dual)) == bits(bregman_hconj(v, u, spec))
        w, z = rng.standard_normal((2, spec.dim_y))
        a = (0.0, 1.0, rng.random())[min(i, 2)]
        assert (bits(step_divergence_primal(w, -z, a, dual))
                == bits(step_divergence_dual(w, -z, a, spec)))
    _, _, v0 = start(spec)
    trace = fd.run_gmd(spec, v0, fd.ExactLineSearch(), K)
    assert trace.error is None
    # the package replays dualize(spec) through its primal-side replay: its
    # per-step terms are the hand-mirrored ones bit for bit, and its weighted-sum
    # recursion agrees with the reference's explicit weight rows to rounding
    seen = {}
    for name in ("_decayed_sums", "_relative"):
        monkeypatch.setattr(certificates, name, spy(seen, name, getattr(certificates, name)))
    got = fd.md_identity_residuals(trace, spec)
    pv, div, dual = ref_md_identity_terms(trace, spec)
    alphas, weighted_pv, weighted_div = seen["_decayed_sums"]
    assert bits(alphas) == bits(trace.alphas)
    assert bits(weighted_pv) == bits(np.multiply(trace.alphas, pv))
    assert bits(weighted_div) == bits(div)
    assert bits(seen["_relative"][2]) == bits(dual)
    np.testing.assert_allclose(got, ref_md_identity_residuals(trace, spec), rtol=0, atol=1e-13)


@pytest.mark.parametrize("general", [False, True], ids=["identity", "random-A"])
@pytest.mark.parametrize("family", FAMILIES)
def test_primal_replay_increments_are_the_reference_ones(family, general, monkeypatch):
    """the gcs replay's per-step divergences are the reference's sharpened
    increments at the recorded iterates and their oracle targets, bit for bit"""
    spec = build(family, general)
    x0, _, _ = start(spec)
    trace = fd.run_gcs(spec, x0, fd.ExactLineSearch(), K, mode="sharp")
    assert trace.error is None
    seen = {}
    monkeypatch.setattr(certificates, "_decayed_sums",
                        spy(seen, "_decayed_sums", certificates._decayed_sums))
    fd.cg_identity_residuals(trace, spec)
    A, At = spec.linmap.apply, spec.linmap.adjoint
    targets = [spec.h_conj_grad(-At(spec.f_grad(A(x)))) for x in trace.xs[:-1]]
    want = [step_divergence_primal(x, s, a, spec)
            for x, s, a in zip(trace.xs[:-1], targets, trace.alphas)]
    np.testing.assert_array_equal(seen["_decayed_sums"][2], want)


def spy(seen, key, fn):
    def wrapped(*args):
        seen[key] = args
        return fn(*args)
    return wrapped
