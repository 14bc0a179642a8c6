"""Command-line harness: config validation, artifact layout, determinism,
and the five subcommands."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fenchelduo as fd
import fenchelduo.cli as cli
from fenchelduo.cli import CSV_HEADER, main


def write_config(path, **overrides):
    config = {
        "problem": {"name": "quadratic-simplex", "n": 2},
        "algorithm": "gcs",
        "rule": {"name": "fixed_harmonic"},
        "k_max": 40,
        "seed": 0,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


PROBLEMS = ["quadratic-simplex", "quadratic-box", "quadratic-l1", "entropy-lse",
            "holder-power-simplex"]


class TestRun:
    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_artifacts(self, tmp_path, algorithm, problem):
        cfg = write_config(tmp_path / "cfg.json", algorithm=algorithm,
                           problem={"name": problem, "n": 2})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "trace.csv")
        assert len(rows) == 40
        assert rows[0][0] == "1" and rows[0][1] == "1"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 40
        assert summary["error"] is None

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", k_max=5)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        rows = read_rows(out / "trace.csv")
        # 17 significant digits reproduce the exact binary doubles
        assert float(rows[1][4]) == 7.0 / 9.0
        assert float(rows[1][5]) == 2.0 / 9.0

    def test_deterministic_modulo_timing(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "quadratic-simplex", "n": 3,
                                    "a": {"random": [4, 3]}},
                           rule={"name": "exact_ls"}, seed=11)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])

        def strip_timing(p):
            return ["," .join(line.split(",")[:-1]) for line in (p / "trace.csv").read_text().splitlines()]

        assert strip_timing(out1) == strip_timing(out2)

    def test_seed_changes_random_map(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "quadratic-simplex", "n": 3,
                                    "a": {"random": [4, 3]}})
        out1, out2 = tmp_path / "s0", tmp_path / "s7"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
        g1 = [r[4] for r in read_rows(out1 / "trace.csv")]
        g2 = [r[4] for r in read_rows(out2 / "trace.csv")]
        assert g1 != g2

    def test_hundred_step_final_gap_within_schedule_bound(self, tmp_path):
        # probed constant 2 gives 2C/(k+2) = 4/102 at the final iteration
        cfg = write_config(tmp_path / "cfg.json", k_max=100)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_true_gap"] <= 4.0 / 102.0 + 1e-12

    def test_line_search_final_bound_beats_schedule(self, tmp_path):
        # the line search minimizes the certified bound, so that is the
        # column it dominates (the true gap at the averaged certificate is
        # not ordered between the two rules)
        cfg_f = write_config(tmp_path / "f.json", k_max=100)
        cfg_l = write_config(tmp_path / "l.json", k_max=100, rule={"name": "exact_ls"})
        out_f, out_l = tmp_path / "of", tmp_path / "ol"
        main(["run", "--config", str(cfg_f), "--out", str(out_f)])
        main(["run", "--config", str(cfg_l), "--out", str(out_l)])
        gap_f = json.loads((out_f / "summary.json").read_text())["final_gap_bound"]
        gap_l = json.loads((out_l / "summary.json").read_text())["final_gap_bound"]
        assert gap_l <= gap_f + 1e-12

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", rule={"name": "open_loop", "gamma": 3.0},
                           mode="sharp")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--kmax", "7"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 7
        assert summary["rule"] == {"name": "open_loop", "gamma": 3.0}
        assert summary["mode"] == "sharp"
        assert "policy" not in summary


# (key named in the error, config overrides): wrong JSON types
WRONG_TYPES = [
    ("k_max", {"k_max": True}),
    ("seed", {"seed": True}),
    ("epsilon", {"epsilon": False}),
    ("problem.n", {"problem": {"name": "quadratic-simplex", "n": True}}),
    ("problem.p", {"problem": {"name": "holder-power-simplex", "p": "1.5"}}),
    ("problem.radius", {"problem": {"name": "quadratic-l1", "radius": True}}),
    ("problem.q", {"problem": {"name": "quadratic-simplex", "q": True}}),
    ("problem.b", {"problem": {"name": "quadratic-simplex", "b": [0.5, True]}}),
    ("problem.a", {"problem": {"name": "quadratic-simplex", "a": [[1, 0], [1]]}}),
    ("problem.lower", {"problem": {"name": "quadratic-box", "lower": "-1"}}),
    ("rule.gamma", {"rule": {"name": "open_loop", "gamma": "x"}}),
    ("x0", {"x0": [1, "0"]}),
]


# (key named in the error, config overrides with the number v in one place):
# JSON's NaN, Infinity and -Infinity parse as floats, but no config number
# may be non-finite
NONFINITE = [
    ("epsilon", lambda v: {"epsilon": v}),
    ("problem.b", lambda v: {"problem": {"name": "quadratic-simplex", "n": 3, "b": [v, 0, 0]}}),
    ("problem.q", lambda v: {"problem": {"name": "quadratic-simplex", "n": 2, "q": v}}),
    ("problem.a", lambda v: {"problem": {"name": "quadratic-simplex", "n": 2,
                                         "a": [[1, 0], [v, 1]]}}),
    ("problem.radius", lambda v: {"problem": {"name": "quadratic-l1", "n": 2, "radius": v}}),
    ("problem.lower", lambda v: {"problem": {"name": "quadratic-box", "n": 2, "lower": v}}),
    ("rule.gamma", lambda v: {"rule": {"name": "open_loop", "gamma": v}}),
    ("x0", lambda v: {"problem": {"name": "quadratic-simplex", "n": 3}, "x0": [v, 0.5, 0.5]}),
]


# (key named in the error, config overrides): a JSON integer beyond float
# range where a float is read, or beyond numpy's largest array dimension
BIG = 10 ** 400
TOO_LARGE = [
    ("problem.b", {"problem": {"name": "quadratic-simplex", "n": 2, "b": [BIG, 0]}}),
    ("problem.q", {"problem": {"name": "quadratic-simplex", "n": 2, "q": BIG}}),
    ("problem.a", {"problem": {"name": "quadratic-simplex", "n": 2, "a": [[1, 0], [BIG, 1]]}}),
    ("problem.lower", {"problem": {"name": "quadratic-box", "n": 2, "lower": [BIG, 0]}}),
    ("problem.upper", {"problem": {"name": "quadratic-box", "n": 2, "upper": BIG}}),
    ("problem.radius", {"problem": {"name": "quadratic-l1", "n": 2, "radius": BIG}}),
    ("x0", {"x0": [BIG, 0]}),
    ("u0", {"algorithm": "hybrid", "u0": [BIG, 0]}),
    ("v0", {"algorithm": "gmd", "v0": [BIG, 0]}),
    ("problem.n", {"problem": {"name": "quadratic-simplex", "n": 2 ** 63}}),
    ("problem.a.random", {"problem": {"name": "quadratic-simplex", "n": 2,
                                      "a": {"random": [2 ** 63, 2]}}}),
]


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", stepsize=0.1)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "stepsize" in capsys.readouterr().err

    def test_unknown_problem_key(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "quadratic-simplex", "n": 2, "radius": 3})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_problem_name(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", problem={"name": "sdp-cone", "n": 2})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_rule(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", rule={"name": "armijo"})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_build_rule_makes_each_rule(self):
        assert cli.build_rule("fixed_harmonic") == fd.FixedHarmonic()
        assert cli.build_rule({"name": "open_loop", "gamma": 3.0}) == fd.OpenLoop(gamma=3.0)
        assert cli.build_rule({"name": "exact_ls"}) == fd.ExactLineSearch()
        with pytest.raises(cli.ConfigError, match="armijo"):
            cli.build_rule({"name": "armijo"})
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.build_rule({"name": "exact_ls", "tol": 1e-8})

    def test_deleted_rule_is_config_or_usage_error(self, tmp_path, capsys):
        """the adaptive-exponent rule is gone: a config naming it is a config
        error listing the three rules, and a --rule flag is a usage error"""
        cfg = write_config(tmp_path / "cfg.json", rule="approx_gamma", k_max=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: unknown rule 'approx_gamma' (options: "
                       "['exact_ls', 'fixed_harmonic', 'open_loop'])\n")
        assert not (tmp_path / "out").exists()
        cfg = write_config(tmp_path / "cfg.json", k_max=5)
        assert exit_code(["run", "--config", str(cfg), "--rule", "approx_gamma"]) == 2
        assert "unrecognized arguments: --rule approx_gamma" in capsys.readouterr().err

    # the line-search budget and polish tolerance are constants, not config
    # keys, so no setting can freeze or crash a run
    @pytest.mark.parametrize("rule", [{"name": "exact_ls", "max_iters": 50},
                                      {"name": "exact_ls", "tol": 1e-8}],
                             ids=["max_iters", "exact_ls-tol"])
    def test_removed_rule_key_is_config_error(self, tmp_path, capsys, rule):
        cfg = write_config(tmp_path / "cfg.json", rule=rule, k_max=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key") and "Traceback" not in err

    def test_q_spelled_identity_is_config_error(self, tmp_path, capsys):
        """q is a matrix or a number (leave it out for the identity), never a name"""
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "quadratic-simplex", "n": 2, "q": "identity"})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: problem.q must be a number, "
                                           "got 'identity'\n")
        assert not (tmp_path / "out").exists()

    def test_bad_algorithm(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", algorithm="bfgs")
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_policy_key_is_unknown(self, tmp_path, capsys, algorithm):
        # gcs and gmd certify by the lower-valued of two points, hybrid by its
        # iterates: no driver has a certificate choice to set
        cfg = write_config(tmp_path / "cfg.json", algorithm=algorithm, policy="average")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown key(s) ['policy'] in config" in capsys.readouterr().err
        assert exit_code(["run", "--config", str(cfg), "--policy", "avg"]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_wrong_length_b(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "quadratic-simplex", "n": 3,
                                    "a": {"random": [4, 3]}, "b": [0.1, 0.2, 0.3]})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "problem.b must have length 4" in capsys.readouterr().err

    def test_random_map_shape_must_match_n(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "quadratic-simplex", "n": 3,
                                    "a": {"random": [4, 2]}})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_construction_error_maps_to_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "holder-power-simplex", "n": 2, "p": 3.0})
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, overrides", WRONG_TYPES, ids=[k for k, _ in WRONG_TYPES])
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, key, overrides):
        # a boolean is not a number, and no string is coerced into one
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key, overrides", NONFINITE, ids=[k for k, _ in NONFINITE])
    def test_nonfinite_number_is_config_error(self, tmp_path, capsys, key, overrides, value):
        cfg = write_config(tmp_path / "cfg.json", **overrides(value))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be")


    @pytest.mark.parametrize("key, overrides", TOO_LARGE, ids=[k for k, _ in TOO_LARGE])
    def test_number_numpy_cannot_take_is_config_error(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} ")

    def test_integer_of_too_many_digits_is_config_error(self, tmp_path, capsys):
        # json refuses to parse an integer of more than 4300 digits
        cfg = write_config(tmp_path / "cfg.json", k_max=1)
        cfg.write_text(cfg.read_text().replace('"k_max": 1', '"k_max": 1' + "0" * 5000))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: config ")

    @pytest.mark.parametrize("key, overrides", [
        ("lower", {"problem": {"name": "quadratic-box", "n": 3, "lower": [0, 1]}}),
        ("upper", {"problem": {"name": "quadratic-box", "n": 3, "upper": [1, 2, 3, 4]}}),
        ("x0", {"problem": {"name": "quadratic-simplex", "n": 3}, "x0": [1, 0]}),
        ("u0", {"algorithm": "hybrid", "u0": [1, 0, 0]}),
        ("v0", {"algorithm": "gmd", "v0": [0.5]}),
        ("seed", {"problem": {"name": "quadratic-simplex", "n": 3, "a": {"random": [2, 3]}},
                  "seed": -1}),
        ("problem.q", {"problem": {"name": "entropy-lse", "n": 3, "f": "lse", "q": 5,
                                   "b": [1, 2, 3]}}),
        ("problem.b", {"problem": {"name": "entropy-lse", "n": 3, "f": "lse", "b": [1, 2, 3]}}),
    ], ids=["lower", "upper", "x0", "u0", "v0", "seed", "lse-q-b", "lse-b"])
    def test_wrong_length_or_unread_value_is_config_error(self, tmp_path, capsys, key,
                                                          overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_box_bounds_scalar_or_length_n(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "quadratic-box", "n": 3, "lower": [0, -1, 0],
                                    "upper": 2})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestVerify:
    def test_default_suite_passes(self, capsys):
        assert main(["verify", "--kmax", "60"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "FAIL " not in out

    def test_single_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           problem={"name": "entropy-lse", "n": 3, "b": [0.3, -0.2, 0.1]})
        assert main(["verify", "--config", str(cfg), "--kmax", "50"]) == 0
        assert "entropy-lse" in capsys.readouterr().out

    def test_config_k_max_is_the_budget(self, tmp_path, monkeypatch, capsys):
        budgets = []

        def run_gcs(spec, x0, rule, k_max, **kw):
            budgets.append(k_max)
            return fd.run_gcs(spec, x0, rule, k_max, **kw)

        monkeypatch.setattr(cli, "run_gcs", run_gcs)
        cfg = write_config(tmp_path / "cfg.json", k_max=7)
        assert main(["verify", "--config", str(cfg)]) == 0
        assert main(["verify", "--config", str(cfg), "--kmax", "9"]) == 0
        assert main(["verify", "--kmax", "9"]) == 0
        assert budgets == [7, 9, 9, 9, 9]

    def test_broken_identity_fails_with_name(self, tmp_path, monkeypatch, capsys):
        # negative control: a corrupted residual check must fail, by name
        cfg = write_config(tmp_path / "cfg.json")
        monkeypatch.setattr(cli, "cg_identity_residuals",
                            lambda trace, spec: np.full(trace.k, 0.5))
        assert main(["verify", "--config", str(cfg), "--kmax", "30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "gcs identity residual" in out


    def test_aborted_equivalence_run_fails_with_name(self, tmp_path, monkeypatch, capsys):
        def aborted(*args):
            raise fd.ConstructionError("dual run aborted: injected")

        monkeypatch.setattr(cli, "check_bach_equivalence", aborted)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["verify", "--config", str(cfg), "--kmax", "30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL quadratic-simplex run-equivalence deviation: dual run aborted" in out
        assert "PASS quadratic-simplex symmetry deviation" in out

    def test_infinite_replay_value_fails_with_name(self, tmp_path, monkeypatch, capsys):
        # the gcs trace replayed against a spec whose f* is +inf everywhere
        def replay(trace, spec):
            return fd.cg_identity_residuals(
                trace, dataclasses.replace(spec, f_conj_val=lambda u: float("inf")))

        monkeypatch.setattr(cli, "cg_identity_residuals", replay)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["verify", "--config", str(cfg), "--kmax", "5"]) == 1
        out = capsys.readouterr().out
        assert ("FAIL quadratic-simplex gcs replay: oracle f_conj_val returned +inf at a "
                "recorded iterate\n") in out
        assert "PASS quadratic-simplex gcs weight-sum defect" not in out
        assert "PASS quadratic-simplex gmd identity residual" in out

    def test_tampered_trace_fails_with_its_row(self, tmp_path, monkeypatch, capsys):
        # the gcs trace with x_3 mirrored, still a point of the simplex, is not a run
        def replay(trace, spec):
            trace.xs[3] = trace.xs[3][::-1].copy()
            return fd.cg_identity_residuals(trace, spec)

        monkeypatch.setattr(cli, "cg_identity_residuals", replay)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["verify", "--config", str(cfg), "--kmax", "5"]) == 1
        out = capsys.readouterr().out
        assert ("FAIL quadratic-simplex gcs replay: row 3: the recorded iterate is not the "
                "step from the one before toward its oracle target (defect ") in out
        assert "PASS quadratic-simplex gmd identity residual" in out


class TestProbeRateCompare:
    def test_probe_reports_constant(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["probe", "--config", str(cfg), "--gamma", "2.0"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("c_hat")][0]
        assert float(line.split(":")[1]) == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma", ["1", "0.5", "nan", "inf", "1e308"])
    def test_probe_gamma_at_most_one_is_config_error(self, tmp_path, capsys, gamma):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["probe", "--config", str(cfg), "--gamma", gamma]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--gamma" in err

    @pytest.mark.parametrize("mode", ["plain", "sharp"])
    @pytest.mark.parametrize("rule", ["fixed_harmonic", "exact_ls"])
    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_rate_of_a_run_trace_is_the_fit_of_the_run(self, tmp_path, capsys, algorithm,
                                                       rule, mode):
        """trace.csv holds 17 significant digits, so rate on the file that
        run wrote prints the fit of the run's own gap column, bit for bit"""
        cfg = write_config(tmp_path / "cfg.json", k_max=40, algorithm=algorithm,
                           rule={"name": rule}, mode=mode,
                           problem={"name": "quadratic-simplex", "n": 3, "b": [0.3, -0.2, 0.1]})
        path = tmp_path / "out" / "trace.csv"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        exponent, r2 = fd.fit_rate(cli.execute(json.loads(cfg.read_text())))
        assert fd.fit_rate(cli._read_trace_gaps(str(path))) == (exponent, r2)
        assert main(["rate", str(path)]) == 0
        assert capsys.readouterr().out == (f"source: {path}\nexponent: {exponent:.17g}\n"
                                           f"r_squared: {r2:.17g}\n")

    def test_rate_needs_exactly_one_source(self, tmp_path, capsys):
        """rate reads one trace file; --config is no flag of it"""
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        for argv in (["rate"], ["rate", str(out / "trace.csv"), "--config", str(cfg)],
                     ["rate", "--config", str(cfg)]):
            assert exit_code(argv) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_rate_missing_trace_file_is_config_error(self, tmp_path, capsys):
        assert main(["rate", str(tmp_path / "nothere.csv")]) == 2
        assert "nothere.csv" in capsys.readouterr().err

    def test_rate_non_numeric_gap_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        rows = [f"{k},0.5,1,0,{1.0 / k},0.1,0,0" for k in range(1, 20)]
        rows[4] = "5,0.5,1,0,abc,0.1,0,0"
        path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        assert main(["rate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "line 6" in err

    def test_compare_table_and_exponents(self, tmp_path, capsys):
        c1 = write_config(tmp_path / "fixed.json", k_max=300)
        c2 = write_config(tmp_path / "ls.json", k_max=300, rule={"name": "exact_ls"})
        c3 = write_config(tmp_path / "hyb.json", k_max=300, algorithm="hybrid")
        out = tmp_path / "cmp"
        assert main(["compare", str(c1), str(c2), str(c3), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rate exponents" in text
        header = (out / "compare.csv").read_text().splitlines()[0]
        assert header == "k,fixed,ls,hyb"

    def test_compare_needs_two(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["compare", str(cfg)]) == 2

    def test_compare_rejects_two_configs_of_one_label(self, tmp_path, monkeypatch, capsys):
        """a label is the file's base name: two cfg.json would name two
        columns cfg; the clash is a config error before any run"""
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        c1 = write_config(tmp_path / "d1" / "cfg.json")
        c2 = write_config(tmp_path / "d2" / "cfg.json", rule={"name": "exact_ls"})
        monkeypatch.setattr(cli, "execute", lambda config: pytest.fail("a run started"))
        assert main(["compare", str(c1), str(c2), "--out", str(tmp_path / "cmp")]) == 2
        assert capsys.readouterr().err == (f"config error: configs {c1} and {c2} get the same "
                                           "label 'cfg'\n")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("first, second", [
        ({"name": "quadratic-simplex", "n": 2}, {"name": "quadratic-simplex", "n": 3}),
        ({"name": "quadratic-simplex", "n": 3, "b": [0, 0, 0]},
         {"name": "quadratic-simplex", "n": 3, "b": [5, -5, 9]}),
        ({"name": "holder-power-simplex", "n": 3, "p": 1.2},
         {"name": "holder-power-simplex", "n": 3, "p": 2.0}),
    ], ids=["dimension", "b", "p"])
    def test_compare_rejects_mismatched_problems(self, tmp_path, first, second):
        c1 = write_config(tmp_path / "a.json", problem=first)
        c2 = write_config(tmp_path / "b.json", problem=second)
        assert main(["compare", str(c1), str(c2)]) == 2

    def test_compare_random_map_needs_same_seed(self, tmp_path):
        problem = {"name": "quadratic-simplex", "n": 3, "a": {"random": [4, 3]}}
        c1 = write_config(tmp_path / "a.json", problem=problem, seed=0)
        c2 = write_config(tmp_path / "b.json", problem=problem, seed=1)
        assert main(["compare", str(c1), str(c2)]) == 2
        assert main(["compare", str(c1), str(c2), "--seed", "4"]) == 0

    def test_probe_without_problem_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 10}))
        assert main(["probe", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err


def exit_code(argv):
    """main's return value, or the exit status argparse raises with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlags:
    FLAGS = {
        "run": {"--config", "--out", "--kmax", "--seed"},
        "verify": {"--config", "--kmax", "--seed"},
        "probe": {"--config", "--gamma", "--seed"},
        "rate": set(),
        "compare": {"--out", "--kmax", "--seed"},
    }

    @staticmethod
    def parser_flags():
        sub = next(a for a in cli.build_parser()._actions if a.choices and "run" in a.choices)
        return {name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
                for name, p in sub.choices.items()}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_subcommand_takes_only_the_flags_it_reads(self, command):
        flags = self.parser_flags()
        assert flags[command] == self.FLAGS[command]
        assert sum(len(f) for f in flags.values()) == 13

    def test_flag_a_subcommand_does_not_read_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert exit_code(["verify", "--mode", "sharp"]) == 2
        assert exit_code(["probe", "--config", str(cfg), "--kmax", "3"]) == 2
        assert exit_code(["rate", str(out / "trace.csv"), "--kmax", "5"]) == 2
        # the rule, its gamma and the mode are set in the config alone
        other = write_config(tmp_path / "other.json", rule={"name": "exact_ls"})
        o2 = str(tmp_path / "o2")
        for flag in (["--rule", "exact_ls"], ["--gamma", "3"], ["--mode", "sharp"]):
            for argv in (["run", "--config", str(cfg), "--out", o2],
                         ["compare", str(cfg), str(other)]):
                capsys.readouterr()
                assert exit_code(argv + flag) == 2
                assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()


def test_closed_stdout_exits_without_traceback(tmp_path):
    """`fenchel-duo compare ... | head` when the reader is gone first"""
    c1 = write_config(tmp_path / "a.json", k_max=300)
    c2 = write_config(tmp_path / "b.json", k_max=300, rule={"name": "exact_ls"})
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "fenchelduo", "compare", str(c1), str(c2)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_oracle_error_exits_three(tmp_path, monkeypatch, capsys):
    """mid-run oracle failures still write the partial trace and exit 3"""
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"

    real_execute = cli.execute

    def sabotage(config):
        trace = real_execute(config)
        trace.error = "oracle f_grad failed: injected"
        return trace

    monkeypatch.setattr(cli, "execute", sabotage)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "injected" in summary["error"]



# ---------------------------------------------------------------------------
# problems too large to build, and config paths no other test reaches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("problem, match", [
    ({"name": "quadratic-simplex", "n": 2 ** 32}, "matrix Q, m = 4294967296"),
    # the largest n is the most float64 entries of one array, 2^60 - 1
    ({"name": "quadratic-box", "n": 2 ** 60}, "problem.n must be an integer in [1, 1152921504606846975]"),
    ({"name": "entropy-lse", "n": 2 ** 32}, "matrix Q, m = 4294967296"),
    ({"name": "quadratic-l1", "n": 2, "a": {"random": [2 ** 31, 2]}, "b": 1},
     "and m * m for a quadratic f"),
    ({"name": "holder-power-simplex", "n": 2 ** 31, "a": {"random": [2 ** 33, 2 ** 31]}},
     "problem.a.random must be"),
], ids=["simplex", "box", "entropy", "l1-random-A", "holder-random-A"])
def test_dense_array_numpy_cannot_hold_is_config_error(tmp_path, monkeypatch, capsys, problem,
                                                      match):
    # the config check refuses each size before anything is built; without
    # it, numpy would refuse each array before allocating it, except the
    # random 2^31 x 2 map of l1, which must not be drawn: its m x m Q is
    # checked first
    monkeypatch.setattr(cli, "random_linear_map", lambda *args: pytest.fail("map drawn"))
    cfg = write_config(tmp_path / "cfg.json", problem=problem)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and match in err


@pytest.mark.parametrize("target", ["random_linear_map", "make_quadratic_simplex"])
def test_memory_error_while_building_is_config_error(tmp_path, monkeypatch, capsys, target):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 48.0 GiB for an array")

    monkeypatch.setattr(cli, target, out_of_memory)
    cfg = write_config(tmp_path / "cfg.json",
                       problem={"name": "quadratic-simplex", "n": 3, "a": {"random": [4, 3]}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: Unable to allocate 48.0 GiB for an array\n"


@pytest.mark.parametrize("problem", [
    {"name": "holder-power-simplex", "n": 2 ** 59},
    {"name": "entropy-lse", "n": 2 ** 59, "f": "lse"},
], ids=["holder", "entropy-lse"])
def test_start_points_too_large_are_config_error(tmp_path, capsys, problem):
    # neither family builds a dense matrix, so n passes the config checks; the
    # first length-n vector, 4 EiB, lies beyond any address space, so numpy
    # refuses it without allocating
    cfg = write_config(tmp_path / "cfg.json", problem=problem)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.n = 576460752303423488: the start points "
                          "do not fit in memory (Unable to allocate")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, match", [
    ({"k_max": 0}, "k_max must be a positive integer"),
    ({"policy": "best"}, "unknown key(s) ['policy'] in config"),
    ({"mode": "tight"}, "mode must be plain|sharp"),
    ({"rule": 5}, "config.rule must be a name or an object"),
    ({"rule": {"name": "open_loop", "gamma": -1}}, "open-loop exponent"),
    ({"problem": {"n": 2}}, "config.problem must be an object with a 'name'"),
], ids=["k_max-0", "policy", "mode", "rule-number", "open_loop-gamma", "problem-no-name"])
def test_config_value_rejected(tmp_path, capsys, overrides, match):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and match in err


def test_json_root_not_an_object_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: config root must be an object\n"


def test_rate_on_a_file_with_a_wrong_header_is_config_error(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("k,gap\n1,0.5\n")
    assert main(["rate", str(path)]) == 2
    assert "header mismatch" in capsys.readouterr().err


def test_rate_from_a_short_run_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", k_max=12)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["rate", str(tmp_path / "out" / "trace.csv")]) == 2
    assert "usable points for the rate fit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare"])
def test_oracle_error_in_rate_and_compare_exits_three(tmp_path, monkeypatch, capsys, command):
    c1 = write_config(tmp_path / "a.json")
    c2 = write_config(tmp_path / "b.json", rule={"name": "exact_ls"})
    real_execute = cli.execute

    def sabotage(config):
        trace = real_execute(config)
        trace.error = "oracle f_grad failed: injected"
        return trace

    monkeypatch.setattr(cli, "execute", sabotage)
    assert main([command, str(c1), str(c2)]) == 3
    assert "oracle f_grad failed: injected" in capsys.readouterr().err


def test_compare_prints_nan_exponent_for_a_short_trace(tmp_path, capsys):
    c1 = write_config(tmp_path / "a.json", k_max=5)
    c2 = write_config(tmp_path / "b.json", k_max=5, rule={"name": "exact_ls"})
    assert main(["compare", str(c1), str(c2)]) == 0
    out = capsys.readouterr().out
    assert "  a: nan (r^2 nan)" in out and "  b: nan (r^2 nan)" in out


def test_verify_reports_an_aborted_run(tmp_path, monkeypatch, capsys):
    def aborted(spec, x0, rule, k_max, **kwargs):
        trace = fd.run_gcs(spec, x0, rule, 3, **kwargs)
        trace.error = "oracle f_grad failed: injected"
        return trace

    monkeypatch.setattr(cli, "run_gcs", aborted)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["verify", "--config", str(cfg), "--kmax", "30"]) == 1
    out = capsys.readouterr().out
    assert "FAIL quadratic-simplex gcs aborted: oracle f_grad failed: injected" in out
    assert "PASS quadratic-simplex gmd identity residual" in out


@pytest.mark.parametrize("command", ["verify", "probe"])
def test_seed_flag_overrides_the_config_seed(tmp_path, capsys, command):
    problem = {"name": "quadratic-simplex", "n": 3, "a": {"random": [4, 3]}}
    extra = ["--kmax", "20"] if command == "verify" else []
    outputs = {}
    for name, seed, flag in (("flag", 0, ["--seed", "4"]), ("config", 4, []), ("plain", 0, [])):
        cfg = write_config(tmp_path / f"{name}.json", problem=problem, seed=seed)
        assert main([command, "--config", str(cfg)] + extra + flag) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["flag"] == outputs["config"] != outputs["plain"]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unwritable_out_is_config_error(tmp_path, capsys, command):
    """an out path that names a file cannot become a directory: exit 2 with
    a config error; a config error before the run makes no directory"""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    c1 = write_config(tmp_path / "a.json", k_max=5)
    c2 = write_config(tmp_path / "b.json", k_max=5, rule={"name": "exact_ls"})
    argv = (["run", "--config", str(c1)] if command == "run" else ["compare", str(c1), str(c2)])
    assert main(argv + ["--out", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write to out {blocker}: ")
    bad = write_config(tmp_path / "bad.json", k_max=0)
    argv = (["run", "--config", str(bad)] if command == "run" else ["compare", str(c1), str(bad)])
    assert main(argv + ["--out", str(tmp_path / "fresh")]) == 2
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("out, match", [
    (5, "config error: out must be a directory name, got 5\n"),
    ("a\x00b", "config error: cannot write to out a\x00b: embedded null byte\n")],
    ids=["number", "nul-byte"])
def test_out_that_names_no_directory_is_config_error(tmp_path, capsys, out, match):
    cfg = write_config(tmp_path / "cfg.json", k_max=5, out=out)
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == match
