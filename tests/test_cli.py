"""Command-line harness: config validation, artifact layout, determinism,
and the three subcommands."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
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


SUMMARY_KEYS = {"problem", "algorithm", "rule", "mode", "seed", "iterations", "final_primal",
                "final_dual", "final_gap_bound", "final_true_gap", "max_identity_residual",
                "rate_exponent", "rate_r_squared", "error"}

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

    def test_summary_keys_are_pinned(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert set(json.loads((out / "summary.json").read_text())) == SUMMARY_KEYS

    @pytest.mark.parametrize("mode", ["plain", "sharp"])
    @pytest.mark.parametrize("rule", ["fixed_harmonic", "exact_ls"])
    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_summary_rate_is_the_fit_of_the_run(self, tmp_path, algorithm, rule, mode):
        """summary.json holds the rate fit of the run's own gap column, bit for
        bit: JSON writes each float at the digits that round-trip it"""
        cfg = write_config(tmp_path / "cfg.json", k_max=40, algorithm=algorithm,
                           rule={"name": rule}, mode=mode,
                           problem={"name": "quadratic-simplex", "n": 3, "b": [0.3, -0.2, 0.1]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        exponent, r2 = fd.fit_rate(cli.execute(json.loads(cfg.read_text())))
        assert (summary["rate_exponent"], summary["rate_r_squared"]) == (exponent, r2)

    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_summary_rate_of_a_short_run_is_null(self, tmp_path, algorithm):
        """k = 10, 11, 12 are 3 usable points, under the fit's 10: no rate, and no error"""
        cfg = write_config(tmp_path / "cfg.json", k_max=12, algorithm=algorithm)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rate_exponent"] is None and summary["rate_r_squared"] is None
        assert summary["iterations"] == 12 and summary["error"] is None

    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_summary_rate_of_a_zero_gap_is_null(self, tmp_path, algorithm):
        """on the one-point simplex every certified bound is exactly 0, and a
        bound of 0 is no point of a log-log fit"""
        cfg = write_config(tmp_path / "cfg.json", algorithm=algorithm,
                           problem={"name": "quadratic-simplex", "n": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert {row[4] for row in read_rows(out / "trace.csv")} == {"0"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rate_exponent"] is None and summary["rate_r_squared"] is None

    def test_summary_rate_of_a_run_stopped_at_epsilon(self, tmp_path):
        """the fit reads the rows the run made, as trace.csv holds them"""
        cfg = write_config(tmp_path / "cfg.json", k_max=400, epsilon=0.01,
                           problem={"name": "quadratic-simplex", "n": 3, "b": [0.3, -0.2, 0.1]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        gaps = [float(row[4]) for row in read_rows(out / "trace.csv")]
        summary = json.loads((out / "summary.json").read_text())
        assert 10 < summary["iterations"] == len(gaps) < 400
        assert (summary["rate_exponent"], summary["rate_r_squared"]) == fd.fit_rate(gaps)

    def test_summary_rate_of_an_aborted_run(self, tmp_path, monkeypatch, capsys):
        """a run an oracle ends still fits its partial trace"""
        def aborted(spec, x0, rule, k_max, **kwargs):
            trace = fd.run_gcs(spec, x0, rule, 25, **kwargs)
            trace.error = "oracle f_grad failed: injected"
            return trace

        monkeypatch.setattr(cli, "run_gcs", aborted)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        gaps = [float(row[4]) for row in read_rows(out / "trace.csv")]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == len(gaps) == 25 and "injected" in summary["error"]
        assert (summary["rate_exponent"], summary["rate_r_squared"]) == fd.fit_rate(gaps)

    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_summary_repeats_the_last_row(self, tmp_path, capsys, algorithm):
        """summary.json and the printed lines give trace.csv's last row and
        largest residual, bit for bit"""
        cfg = write_config(tmp_path / "cfg.json", algorithm=algorithm, mode="sharp",
                           rule={"name": "exact_ls"},
                           problem={"name": "entropy-lse", "n": 3, "b": [0.3, -0.2, 0.1]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [[float(v) for v in row] for row in read_rows(out / "trace.csv")]
        summary = json.loads((out / "summary.json").read_text())
        last = dict(zip(CSV_HEADER.split(","), rows[-1]))
        assert [summary[f"final_{key}"] for key in ("primal", "dual", "gap_bound", "true_gap")] == [
            last[key] for key in ("primal", "dual", "gap_bound", "true_gap")]
        assert summary["max_identity_residual"] == max(row[6] for row in rows)
        assert capsys.readouterr().out == "".join(
            f"{key}: {summary[key]}\n" for key in ("iterations", "final_primal", "final_dual",
                                                   "final_gap_bound", "final_true_gap"))


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

    @pytest.mark.parametrize("value, number", [
        (3, True), (-7, True), (BIG, True), (True, False), (False, False), (0.25, True),
        (-1e308, True), (float("nan"), False), (float("inf"), False), (float("-inf"), False),
        ("1.5", False), (None, False),
    ], ids=["int", "negative-int", "10**400", "True", "False", "float", "-1e308", "NaN",
            "Infinity", "-Infinity", "str", "None"])
    def test_is_number_table(self, value, number):
        # a finite JSON number: an int of any size but not a bool, or a finite float
        assert cli._is_number(value) is number


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

    def test_config_is_checked_as_run_checks_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", algorithm="bogus")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        run_err = capsys.readouterr().err
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == run_err
        assert "algorithm must be gcs|gmd|hybrid, got 'bogus'" in run_err

    def test_config_algorithm_does_not_narrow_the_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", algorithm="hybrid")
        assert main(["verify", "--config", str(cfg), "--kmax", "20"]) == 0
        passed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("PASS")]
        assert len(passed) == 20
        for algo in ("gcs", "gmd", "hybrid"):
            assert f"PASS quadratic-simplex {algo} identity residual" in "\n".join(passed)

    def test_runs_and_replays_are_looked_up_in_order(self, monkeypatch, capsys):
        """each config runs gcs, gmd and hybrid, each replayed before the next
        runs, through the module names a caller may patch"""
        calls = []

        def spy(name):
            real = getattr(cli, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        names = ("run_gcs", "cg_identity_residuals", "run_gmd", "md_identity_residuals",
                 "run_hybrid", "hybrid_identity_residuals")
        for name in names:
            monkeypatch.setattr(cli, name, spy(name))
        assert main(["verify", "--kmax", "20"]) == 0
        assert calls == list(names) * len(cli._DEFAULT_VERIFY)

    def test_each_trace_is_released_before_the_next_run(self, monkeypatch, capsys):
        """verify holds one driver's trace at a time: when gmd, hybrid and the
        equivalence checks start, the trace of the driver before them is gone"""
        last, released = [], []

        def spy(name):
            real = getattr(cli, name)

            def call(*args, **kwargs):
                if name != "run_gcs":  # the driver before ran in this config
                    gc.collect()
                    released.append((name, last[-1]() is None))
                result = real(*args, **kwargs)
                if name.startswith("run_"):
                    last.append(weakref.ref(result))
                return result
            return call

        names = ("run_gcs", "run_gmd", "run_hybrid", "check_bach_equivalence")
        for name in names:
            monkeypatch.setattr(cli, name, spy(name))
        assert main(["verify", "--kmax", "20"]) == 0
        assert released == [(name, True) for name in names[1:]] * len(cli._DEFAULT_VERIFY)

    def test_peak_memory_is_one_run_and_its_replay(self, capsys):
        """under tracemalloc the default suite at --kmax 600 peaks within 1.1x of
        the largest peak of one of its driver runs and that run's replay; the
        measure takes in the whole command, parsing included, so a parser left
        alive into the runs counts against the bound"""
        def peak(fn):
            gc.collect()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert main(["verify", "--kmax", "20"]) == 0  # one-off first-call allocations
        setups = [cli.resolve({**config, "k_max": 600}) for config in cli._DEFAULT_VERIFY]
        single = max(peak(lambda: replay(cli._drive(setup, algo), setup.spec))
                     for setup in setups
                     for algo, replay in (("gcs", fd.cg_identity_residuals),
                                          ("gmd", fd.md_identity_residuals),
                                          ("hybrid", fd.hybrid_identity_residuals)))
        whole = peak(lambda: main(["verify", "--kmax", "600"]))
        assert "OK: 60 passed" in capsys.readouterr().out
        assert whole <= 1.1 * single, (whole, single)

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


class TestProbe:
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
    }

    @staticmethod
    def parser_flags():
        sub = next(a for a in cli.build_parser()._actions if a.choices and "run" in a.choices)
        return {name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
                for name, p in sub.choices.items()}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_subcommand_takes_only_the_flags_it_reads(self, command):
        flags = self.parser_flags()
        assert flags.keys() == self.FLAGS.keys()
        assert flags[command] == self.FLAGS[command]
        assert sum(len(f) for f in flags.values()) == 10

    def test_help_lists_the_three_subcommands(self, capsys):
        assert exit_code(["--help"]) == 0
        assert "{run,verify,probe}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["rate", "compare"])
    def test_retired_subcommand_exits_two(self, tmp_path, capsys, command):
        """rate and compare are gone: run's summary.json holds the rate fit,
        and one run per config gives each gap column"""
        cfg = write_config(tmp_path / "cfg.json")
        assert exit_code([command, str(cfg)]) == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_flag_a_subcommand_does_not_read_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert exit_code(["verify", "--mode", "sharp"]) == 2
        assert exit_code(["probe", "--config", str(cfg), "--kmax", "3"]) == 2
        # the rule, its gamma and the mode are set in the config alone
        out = str(tmp_path / "out")
        for flag in (["--rule", "exact_ls"], ["--gamma", "3"], ["--mode", "sharp"]):
            capsys.readouterr()
            assert exit_code(["run", "--config", str(cfg), "--out", out] + flag) == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "run", "probe"])
def test_closed_stdout_exits_without_traceback(tmp_path, command):
    """`fenchel-duo verify ... | head` when the reader is gone first"""
    cfg = write_config(tmp_path / "cfg.json")
    argv = {"verify": ["--kmax", "20"], "run": ["--config", str(cfg), "--out", str(tmp_path)],
            "probe": ["--config", str(cfg)]}[command]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "fenchelduo", command] + argv,
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
    assert set(summary) == SUMMARY_KEYS



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


def test_unwritable_out_is_config_error(tmp_path, capsys):
    """an out path that names a file cannot become a directory: exit 2 with
    a config error; a config error before the run makes no directory"""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = write_config(tmp_path / "cfg.json", k_max=5)
    assert main(["run", "--config", str(cfg), "--out", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write to out {blocker}: ")
    bad = write_config(tmp_path / "bad.json", k_max=0)
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "fresh")]) == 2
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("out, match", [
    (5, "config error: out must be a directory name, got 5\n"),
    ("a\x00b", "config error: cannot write to out a\x00b: embedded null byte\n")],
    ids=["number", "nul-byte"])
def test_out_that_names_no_directory_is_config_error(tmp_path, capsys, out, match):
    cfg = write_config(tmp_path / "cfg.json", k_max=5, out=out)
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == match
