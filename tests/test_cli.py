"""Command-line harness: config validation, artifact layout, determinism,
and the five subcommands."""

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


class TestRun:
    @pytest.mark.parametrize("algorithm", ["gcs", "gmd", "hybrid"])
    def test_artifacts(self, tmp_path, algorithm):
        cfg = write_config(tmp_path / "cfg.json", algorithm=algorithm)
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
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--kmax", "7",
              "--rule", "open_loop", "--gamma", "3.0", "--mode", "sharp",
              "--policy", "best"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 7
        assert summary["rule"] == {"name": "open_loop", "gamma": 3.0}
        assert summary["mode"] == "sharp"
        assert summary["policy"] == "best"


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
        assert cli.build_rule({"name": "exact_ls", "tol": 1e-8}) == fd.ExactLineSearch(tol=1e-8)
        assert cli.build_rule({"name": "approx_gamma", "delta": 0.2}) == fd.ApproxGamma(delta=0.2)
        with pytest.raises(cli.ConfigError, match="armijo"):
            cli.build_rule({"name": "armijo"})

    # the line-search budget and approx_gamma's largest exponent are constants,
    # not config keys, so no gamma_max <= 0 can freeze or crash a run
    @pytest.mark.parametrize("rule", [{"name": "approx_gamma", "gamma_max": -1},
                                      {"name": "approx_gamma", "gamma_max": 0},
                                      {"name": "exact_ls", "max_iters": 50}],
                             ids=["gamma_max-negative", "gamma_max-zero", "max_iters"])
    def test_removed_rule_key_is_config_error(self, tmp_path, capsys, rule):
        cfg = write_config(tmp_path / "cfg.json", rule=rule, k_max=5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key") and "Traceback" not in err

    def test_bad_algorithm(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", algorithm="bfgs")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_hybrid_rejects_best_policy(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", algorithm="hybrid", policy="best")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "policy" in capsys.readouterr().err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

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

    def test_rate_from_config_and_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", k_max=400,
                           rule={"name": "exact_ls"})
        assert main(["rate", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["rate", str(out / "trace.csv")]) == 0
        from_trace = capsys.readouterr().out
        exp_cfg = float([l for l in from_config.splitlines() if l.startswith("exponent")][0].split(":")[1])
        exp_trc = float([l for l in from_trace.splitlines() if l.startswith("exponent")][0].split(":")[1])
        assert exp_cfg == pytest.approx(exp_trc, rel=1e-12)

    def test_rate_needs_exactly_one_source(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["rate"]) == 2
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert main(["rate", str(out / "trace.csv"), "--config", str(cfg)]) == 2

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
        "run": {"--config", "--out", "--kmax", "--rule", "--gamma", "--delta", "--tol",
                "--policy", "--mode", "--seed"},
        "verify": {"--config", "--kmax", "--seed"},
        "probe": {"--config", "--gamma", "--seed"},
        "rate": {"--config", "--kmax", "--rule", "--gamma", "--delta", "--tol",
                 "--policy", "--mode", "--seed"},
        "compare": {"--out", "--kmax", "--rule", "--gamma", "--delta", "--tol",
                    "--policy", "--mode", "--seed"},
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
        assert sum(len(f) for f in flags.values()) == 34

    def test_flag_a_subcommand_does_not_read_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert exit_code(["verify", "--mode", "sharp"]) == 2
        assert exit_code(["probe", "--config", str(cfg), "--kmax", "3"]) == 2
        assert exit_code(["rate", str(out / "trace.csv"), "--kmax", "5"]) == 2
        # fixed_harmonic has no tolerance: a rule flag is checked like a config key
        assert exit_code(["run", "--config", str(cfg), "--tol", "1e-8",
                          "--out", str(tmp_path / "o2")]) == 2
        assert "'tol'" in capsys.readouterr().err

    def test_rule_flag_sets_key_of_config_rule(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", rule={"name": "open_loop", "gamma": 1.5})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--gamma", "3"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rule"] == {"gamma": 3.0, "name": "open_loop"}
        rows = read_rows(out / "trace.csv")
        assert float(rows[1][1]) == 3.0 / 4.0  # second step: gamma / (1 + gamma)


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


def test_env_var_controls_logging(monkeypatch, tmp_path):
    monkeypatch.setenv("FENCHEL_DUO_LOG", "debug")
    cfg = write_config(tmp_path / "cfg.json", k_max=3)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
