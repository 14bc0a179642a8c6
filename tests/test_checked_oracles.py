"""Every call the package makes to a user's oracle is checked: a closed-form
Bregman distance, a replay's objective values, a curvature probe's (h*)' and
the CLI's start points end with an error that names the user's oracle when
the oracle raises, returns NaN, -inf, an infinite value where a finite one
is needed, or a subgradient of the wrong shape; a closed-form Bregman
distance also when it is negative beyond rounding."""

import json
from dataclasses import replace

import numpy as np
import pytest

import fenchelduo as fd
import fenchelduo.cli as cli


def quadratic():
    # closed-form breg_f, no breg_hconj
    return fd.make_quadratic_simplex(b=np.array([0.3, -0.2, 0.1, 0.05]), n=4)


def entropy():
    # closed-form breg_hconj (log-sum-exp) and breg_f (quadratic)
    return fd.make_entropy_lse(3, b=np.array([0.3, -0.2, 0.1]))


def start(spec):
    x0 = np.asarray(spec.h_conj_grad(np.zeros(spec.dim_x)), dtype=float)
    return x0, np.asarray(spec.f_grad(spec.linmap.apply(x0)), dtype=float)


def run(algo, spec, rule, k_max=20):
    x0, u0 = start(spec)
    if algo == "gcs":
        return fd.run_gcs(spec, x0, rule, k_max)
    if algo == "gmd":
        return fd.run_gmd(spec, np.zeros(spec.dim_y), rule, k_max)
    return fd.run_hybrid(spec, x0, u0, rule, k_max)


def failing(spec, oracle, value, from_call=1):
    """``spec`` whose ``oracle`` returns ``value`` from call ``from_call`` on."""
    real = getattr(spec, oracle)
    calls = {"n": 0}

    def wrapped(*args):
        calls["n"] += 1
        return value if calls["n"] >= from_call else real(*args)

    return replace(spec, **{oracle: wrapped})


COLUMNS = ("alphas", "primal", "dual", "gap_plain", "gap_sharp", "true_gap", "residual")


def assert_prefix(broken, healthy):
    assert 0 < broken.k < healthy.k
    for c in COLUMNS:
        assert getattr(broken, c) == getattr(healthy, c)[:broken.k]


RULES = [fd.FixedHarmonic(), fd.ExactLineSearch()]
RULE_IDS = ["fixed_harmonic", "exact_ls"]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_nan_closed_form_bregman_ends_run(rule):
    healthy = run("gcs", quadratic(), rule)
    broken = run("gcs", failing(quadratic(), "breg_f", float("nan"), from_call=5), rule)
    assert broken.error == "oracle breg_f returned NaN"
    assert_prefix(broken, healthy)


def test_infinite_closed_form_bregman_at_the_chosen_step_ends_run():
    rule = fd.FixedHarmonic()
    healthy = run("gcs", quadratic(), rule)
    broken = run("gcs", failing(quadratic(), "breg_f", float("inf"), from_call=5), rule)
    assert broken.error == "oracle breg_f returned +inf at the first Bregman argument"
    assert_prefix(broken, healthy)


def test_infinite_closed_form_bregman_shrinks_the_line_search_bracket():
    # D_f is +inf on long steps: a probe there must count as an infinite
    # surrogate value, as an InfiniteValue raised by the oracle does
    spec = quadratic()
    probes = {"calls": 0, "inf": 0}

    def capped(on_inf):
        def breg_f(y2, y1):
            probes["calls"] += 1  # the first call is the full first step
            if probes["calls"] > 1 and float(np.linalg.norm(y2 - y1)) > 0.3:
                probes["inf"] += 1
                return on_inf()
            return spec.breg_f(y2, y1)
        probes["calls"] = 0
        return replace(spec, breg_f=breg_f)

    def raise_infinite():
        raise fd.InfiniteValue("outside the cap")

    infinite = run("gcs", capped(lambda: float("inf")), fd.ExactLineSearch())
    assert probes["inf"] > 0
    raised = run("gcs", capped(raise_infinite), fd.ExactLineSearch())
    assert infinite.error is None and raised.error is None and infinite.k == 20
    for c in COLUMNS:
        assert getattr(infinite, c) == getattr(raised, c)
    assert max(infinite.alphas[1:]) < 1.0


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
@pytest.mark.parametrize("algo", ["gmd", "hybrid"])
def test_nan_closed_form_hconj_bregman_names_the_users_oracle(algo, rule):
    healthy = run(algo, entropy(), rule)
    broken = run(algo, failing(entropy(), "breg_hconj", float("nan"), from_call=3), rule)
    assert broken.error == "oracle breg_hconj returned NaN"
    assert broken.k < healthy.k
    for c in COLUMNS:
        assert getattr(broken, c) == getattr(healthy, c)[:broken.k]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
@pytest.mark.parametrize("algo, oracle, spec, value", [
    ("gcs", "breg_f", quadratic, -1.0), ("hybrid", "breg_f", quadratic, -1.0),
    ("gmd", "breg_hconj", entropy, -0.5), ("hybrid", "breg_hconj", entropy, -0.5)])
def test_negative_closed_form_bregman_ends_run(algo, oracle, spec, value, rule):
    # a Bregman distance is nonnegative: a closed form below rounding size
    # would make the certified bound negative, and a run with epsilon stop on it
    healthy = run(algo, spec(), rule)
    broken = run(algo, failing(spec(), oracle, value, from_call=3), rule)
    assert broken.error == f"oracle {oracle} returned a negative Bregman distance {value}"
    assert_prefix(broken, healthy)


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
@pytest.mark.parametrize("algo, oracle, spec", [
    ("gcs", "breg_f", quadratic), ("hybrid", "breg_f", quadratic),
    ("gmd", "breg_hconj", entropy), ("hybrid", "breg_hconj", entropy)])
def test_minus_infinite_closed_form_bregman_ends_run(algo, oracle, spec, rule):
    # +inf is "outside the domain", and the line search shrinks its bracket
    # on it; no Bregman distance takes -inf, so it ends the run
    healthy = run(algo, spec(), rule)
    broken = run(algo, failing(spec(), oracle, -np.inf, from_call=3), rule)
    assert broken.error == f"oracle {oracle} returned -inf"
    assert_prefix(broken, healthy)


@pytest.mark.parametrize("algo", ["gcs", "gmd", "hybrid"])
@pytest.mark.parametrize("oracle, value, shape", [
    ("f_grad", 0.5, ()), ("f_grad", np.full(4, 0.25), (4,)), ("h_conj_grad", np.ones(2), (2,))],
    ids=["f_grad-scalar", "f_grad-length-4", "h_conj_grad-length-2"])
def test_subgradient_of_the_wrong_shape_ends_run(algo, oracle, value, shape):
    # f' maps R^m, and (h*)' R^n, to itself; the start points are healthy
    spec = fd.make_quadratic_simplex(n=3)
    trace = run(algo, failing(spec, oracle, value, from_call=2), fd.FixedHarmonic(), k_max=5)
    assert trace.k == 0
    assert trace.error == f"oracle {oracle} returned shape {shape} for a point of shape (3,)"


def test_rounding_size_negative_closed_form_bregman_reads_zero():
    spec = failing(quadratic(), "breg_f", -1e-13)
    y = np.array([0.5, 0.5, 0.0, 0.0])
    assert fd.bregman_f(y, y, spec) == 0.0


@pytest.mark.parametrize("failure", ["nan", "raise"])
def test_probe_counts_a_failing_conjugate_subgradient_as_skipped(failure):
    spec = quadratic()
    calls = {"n": 0}

    def every_other(v):
        calls["n"] += 1
        if calls["n"] % 2:
            return spec.h_conj_grad(v)
        if failure == "raise":
            raise ValueError("outside the domain")
        return np.full(spec.dim_x, np.nan)

    est = fd.probe_curvature(replace(spec, h_conj_grad=every_other), 2.0, n_samples=40)
    assert est.skipped == 20
    assert 0.0 < est.c_hat < np.inf


@pytest.mark.parametrize("algo, oracle, spec", [
    ("gcs", "breg_f", quadratic), ("gmd", "breg_hconj", entropy),
    ("hybrid", "breg_hconj", entropy)])
def test_curvature_along_trace_rejects_a_nan_bregman(algo, oracle, spec):
    trace = run(algo, spec(), fd.FixedHarmonic(), k_max=5)
    assert trace.error is None
    with pytest.raises(fd.DomainError, match=f"^oracle {oracle} returned NaN$"):
        fd.curvature_along_trace(trace, failing(spec(), oracle, float("nan")), 2.0)


def raising(spec, oracle):
    def broken(*args):
        raise TypeError("injected")
    return replace(spec, **{oracle: broken})


REPLAYS = {"gcs": fd.cg_identity_residuals, "gmd": fd.md_identity_residuals,
           "hybrid": fd.hybrid_identity_residuals}


@pytest.mark.parametrize("algo, oracle", [
    ("gcs", "f_conj_val"), ("gcs", "h_conj_val"), ("gmd", "f_val"), ("gmd", "h_val"),
    ("hybrid", "f_conj_val"), ("hybrid", "h_conj_val")])
def test_replay_names_the_oracle_that_raises(algo, oracle):
    spec = fd.make_holder_power_simplex(1.5, 3)  # no closed forms
    trace = run(algo, spec, fd.FixedHarmonic(), k_max=5)
    assert trace.error is None
    with pytest.raises(fd.DomainError, match=f"^oracle {oracle} failed: injected$"):
        REPLAYS[algo](trace, raising(spec, oracle))


@pytest.mark.parametrize("algo, oracle, spec", [
    ("gcs", "breg_f", quadratic), ("gmd", "breg_hconj", entropy),
    ("hybrid", "breg_f", entropy)])
def test_replay_rejects_a_nan_closed_form_bregman(algo, oracle, spec):
    trace = run(algo, spec(), fd.FixedHarmonic(), k_max=5)
    assert trace.error is None and np.all(np.isfinite(REPLAYS[algo](trace, spec())))
    with pytest.raises(fd.DomainError, match=f"^oracle {oracle} returned NaN$"):
        REPLAYS[algo](trace, failing(spec(), oracle, float("nan")))


@pytest.mark.parametrize("oracle", ["h_conj_grad", "f_grad"])
def test_cli_default_start_point_names_the_oracle(tmp_path, monkeypatch, capsys, oracle):
    real = cli.build_problem
    monkeypatch.setattr(cli, "build_problem", lambda *a: raising(real(*a), oracle))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"name": "quadratic-simplex", "n": 2},
                               "algorithm": "hybrid"}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: oracle {oracle} failed: injected\n"
