"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line.  All expected
values are either exact hand computations, enumeration oracles, or constants
probed along the certified trajectory; tolerances are fixed here and nowhere
else.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
import pytest

import fenchelduo as fd
from fenchelduo import steps

K_IDENTITY = 500
K_RATE = 1000


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# the three acceptance problems and shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def problems():
    rng = np.random.default_rng(7)
    quad = fd.make_quadratic_simplex(n=2)
    entropy = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
    general = fd.make_quadratic_simplex(
        Q=np.eye(5), b=rng.standard_normal(5) * 0.4, n=3,
        a=fd.random_linear_map(5, 3, rng))
    return {"quadratic-simplex": quad, "entropy-lse": entropy, "random-A": general}


def start_x(spec):
    x0 = np.zeros(spec.dim_x)
    x0[0] = 1.0
    return x0


@pytest.fixture(scope="module")
def identity_runs(problems):
    """fixed-schedule runs of all three drivers on all three problems"""
    runs = {}
    for name, spec in problems.items():
        x0 = start_x(spec)
        u0 = spec.f_grad(spec.linmap.apply(x0))
        runs[name, "gcs"] = fd.run_gcs(spec, x0, fd.FixedHarmonic(), K_IDENTITY)
        runs[name, "gmd"] = fd.run_gmd(spec, np.zeros(spec.dim_y), fd.FixedHarmonic(), K_IDENTITY)
        runs[name, "hybrid"] = fd.run_hybrid(spec, x0, u0, fd.FixedHarmonic(), K_IDENTITY)
    return runs


@pytest.fixture(scope="module")
def rate_runs(problems):
    """line-search runs behind the rate and bound criteria"""
    quad = problems["quadratic-simplex"]
    entropy = problems["entropy-lse"]
    segment = fd.make_holder_power_simplex(1.5, 2, a=[[1.0, -1.0]])
    x0e = start_x(entropy)
    runs = {
        "quad_fh": fd.run_gcs(quad, start_x(quad), fd.FixedHarmonic(), K_RATE),
        "quad_ls": fd.run_gcs(quad, start_x(quad), fd.ExactLineSearch(), K_RATE),
        "entropy_md_ls": fd.run_gmd(entropy, np.zeros(3), fd.ExactLineSearch(), K_RATE),
        "entropy_hyb_ls": fd.run_hybrid(entropy, x0e, entropy.f_grad(x0e),
                                        fd.ExactLineSearch(), K_RATE),
        "segment_ls": fd.run_gcs(segment, np.array([1.0, 0.0]), fd.ExactLineSearch(), K_RATE),
    }
    return {"specs": {"segment": segment}, "runs": runs}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_identity_suite(problems, identity_runs):
    """certificate identities hold to 1e-8 relative at every k on all nine
    problem x driver combinations"""
    residual_fns = {"gcs": fd.cg_identity_residuals, "gmd": fd.md_identity_residuals,
                    "hybrid": fd.hybrid_identity_residuals}
    worst, worst_at = 0.0, ""
    for (name, algo), trace in identity_runs.items():
        assert trace.error is None, f"{name}/{algo} aborted: {trace.error}"
        res = residual_fns[algo](trace, problems[name])
        assert len(res) == K_IDENTITY
        value = float(np.max(res))
        if value > worst:
            worst, worst_at = value, f"{name}/{algo}"
    report(1, worst <= 1e-8,
           f"9 identity combinations, worst relative residual {worst:.3e} ({worst_at})")


def test_criterion_2_run_equivalence(problems):
    """primal conditional-subgradient run equals the sign-mapped dual
    mirror-descent run, identity and general map, 50 iterations"""
    dev_id = fd.check_bach_equivalence(problems["quadratic-simplex"], [1.0, 0.0],
                                       fd.FixedHarmonic(), 50)
    dev_ga = fd.check_bach_equivalence(problems["random-A"], [1.0, 0.0, 0.0],
                                       fd.FixedHarmonic(), 50)
    dev = max(dev_id, dev_ga)
    report(2, dev <= 1e-12, f"equivalence deviation {dev:.3e} (identity {dev_id:.1e}, "
                            f"general {dev_ga:.1e})")


def test_criterion_3_hybrid_symmetry(problems):
    """the symmetric driver commutes with dualization on two problems"""
    quad = problems["quadratic-simplex"]
    entropy = problems["entropy-lse"]
    x0e = start_x(entropy)
    dev_q = fd.check_hybrid_symmetry(quad, [1.0, 0.0], [1.0, 0.0], fd.FixedHarmonic(), 30)
    dev_e = fd.check_hybrid_symmetry(entropy, x0e, entropy.f_grad(x0e),
                                     fd.FixedHarmonic(), 30)
    dev = max(dev_q, dev_e)
    report(3, dev <= 1e-12, f"symmetry deviation {dev:.3e} over 30 iterations")


def test_criterion_4_harmonic_schedule_bound(rate_runs):
    """2C/(k+2) bound with C = 2 from vertex enumeration, plus the exact
    hand-computed values at k = 2"""
    verts = fd.SimplexRegion(2).vertices()
    c = max(float((a - b) @ (a - b)) for a in verts for b in verts)
    assert c == 2.0
    trace = rate_runs["runs"]["quad_fh"]
    k = np.arange(1, trace.k + 1)
    bound = 2.0 * c / (k + 2.0)
    violations = int(np.sum(np.asarray(trace.true_gap) > bound + 1e-12))
    spot_ok = (trace.true_gap[1] == pytest.approx(2.0 / 9.0, rel=1e-12)
               and trace.gap_plain[1] == pytest.approx(7.0 / 9.0, rel=1e-12)
               and trace.gap_plain[1] <= 2.0 * c / 4.0)
    report(4, violations == 0 and spot_ok,
           f"true gap <= 4/(k+2) for k <= {trace.k}, 0 violations; "
           f"spot k=2: gap {trace.true_gap[1]:.6f} bound {trace.gap_plain[1]:.6f}")


def test_criterion_5_line_search_bounds(rate_runs):
    """C (gamma/(k+gamma))^(gamma-1) bounds under exact line search, with the
    dual and symmetric analogues using trajectory-probed constants"""
    runs = rate_runs["runs"]
    gamma = 2.0
    quad = runs["quad_ls"]
    k = np.arange(1, quad.k + 1)
    v1 = int(np.sum(np.asarray(quad.true_gap) > 2.0 * (gamma / (k + gamma)) ** (gamma - 1.0) + 1e-12))

    entropy = fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))
    md = runs["entropy_md_ls"]
    c_star = fd.curvature_along_trace(md, entropy, gamma)
    k2 = np.arange(1, md.k + 1)
    v2 = int(np.sum(np.asarray(md.true_gap) > c_star * (gamma / (k2 + gamma)) ** (gamma - 1.0) + 1e-12))

    hyb = runs["entropy_hyb_ls"]
    cp, cd = fd.curvature_along_trace(hyb, entropy, gamma)
    k3 = np.arange(1, hyb.k + 1)
    v3 = int(np.sum(np.asarray(hyb.true_gap) > (cp + cd) * (gamma / (k3 + gamma)) ** (gamma - 1.0) + 1e-12))

    report(5, v1 + v2 + v3 == 0,
           f"line-search bounds: quad C=2 ({v1} violations), "
           f"dual C*={c_star:.4f} ({v2}), symmetric C+C*={cp + cd:.4f} ({v3})")


def test_criterion_6_rate_fits(rate_runs):
    """log-log slopes of the certified gap under exact line search"""
    slope_q, r2_q = fd.fit_rate(rate_runs["runs"]["quad_ls"])
    slope_h, r2_h = fd.fit_rate(rate_runs["runs"]["segment_ls"])
    ok = -1.15 <= slope_q <= -0.90 and -0.65 <= slope_h <= -0.35
    report(6, ok, f"quadratic slope {slope_q:.3f} (r2 {r2_q:.4f}) in [-1.15,-0.90]; "
                  f"power-1.5 slope {slope_h:.3f} (r2 {r2_h:.4f}) in [-0.65,-0.35]")


def test_criterion_7_weight_properties(rate_runs):
    """lambda rows are probability vectors at every k up to 1000"""
    alphas = rate_runs["runs"]["quad_fh"].alphas
    assert alphas[0] == 1.0
    worst_sum, worst_neg = 0.0, 0.0
    for k in range(1, len(alphas) + 1):
        lam, _ = fd.weight_rows(alphas[:k])
        worst_sum = max(worst_sum, abs(float(np.sum(lam)) - 1.0))
        worst_neg = max(worst_neg, float(max(0.0, -np.min(lam))))
    ok = worst_sum <= 1e-12 and worst_neg == 0.0
    report(7, ok, f"sum defect {worst_sum:.2e} <= 1e-12 and no negative weights "
                  f"for k <= {len(alphas)}")


def test_criterion_8_sandwich(identity_runs, rate_runs):
    """0 below (weak duality), certified bound above, on every recorded row"""
    lower, upper = 0.0, 0.0
    rows = 0
    traces = list(identity_runs.values()) + list(rate_runs["runs"].values())
    for trace in traces:
        tg = np.asarray(trace.true_gap)
        lower = max(lower, float(np.max(-tg)))
        upper = max(upper, float(np.max(tg - trace.gap_bound)))
        rows += trace.k
    ok = lower <= 1e-9 and upper <= 1e-8
    report(8, ok, f"{rows} rows over {len(traces)} runs: worst below-zero "
                  f"{lower:.2e} <= 1e-9, worst above-bound {upper:.2e} <= 1e-8")


def test_criterion_9_line_search_optimality():
    """surrogate minimizer beats a 1e4-point grid and nails the closed form"""
    rng = np.random.default_rng(123)
    grid = np.linspace(0.0, 1.0, 10**4)
    worst = 0.0
    for _ in range(100):
        gap = float(rng.uniform(0.05, 10.0))
        curv = float(rng.uniform(0.05, 10.0))
        a = steps._minimize_step_surrogate(gap, lambda t, c=curv: 0.5 * c * t * t)
        val = (1.0 - a) * gap + 0.5 * curv * a * a
        grid_min = float(np.min((1.0 - grid) * gap + 0.5 * curv * grid**2))
        worst = max(worst, val - grid_min)
    a_closed = steps._minimize_step_surrogate(1.0, lambda t: t * t)
    closed_err = abs(a_closed - 0.5)
    ok = worst <= 1e-8 and closed_err <= 1e-10
    report(9, ok, f"100 random surrogates: worst excess over grid {worst:.2e} <= 1e-8; "
                  f"closed-form step error {closed_err:.2e} <= 1e-10")


def test_criterion_10_sharpened_versus_plain(identity_runs):
    """the sharpened recursion never exceeds the plain one and is strictly
    tighter somewhere once the nonsmooth part is strictly convex"""
    trace = identity_runs["entropy-lse", "gcs"]
    gp, gs = np.asarray(trace.gap_plain), np.asarray(trace.gap_sharp)
    never_above = bool(np.all(gs <= gp + 1e-12))
    strict = int(np.sum(gs < gp - 1e-12))
    report(10, never_above and strict >= 1,
           f"sharpened <= plain at all {trace.k} iterations, strictly tighter at "
           f"{strict} of them")
