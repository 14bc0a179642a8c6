"""Command-line harness: config validation, artifact layout, determinism,
and the five subcommands."""

import json

import numpy as np
import pytest

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
    def test_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
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

    def test_broken_identity_fails_with_name(self, tmp_path, monkeypatch, capsys):
        # negative control: a corrupted residual check must fail, by name
        cfg = write_config(tmp_path / "cfg.json")
        monkeypatch.setattr(cli, "cg_identity_residuals",
                            lambda trace, spec: np.full(trace.k, 0.5))
        assert main(["verify", "--config", str(cfg), "--kmax", "30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "gcs identity residual" in out


class TestProbeRateCompare:
    def test_probe_reports_constant(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["probe", "--config", str(cfg), "--gamma", "2.0"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("c_hat")][0]
        assert float(line.split(":")[1]) == pytest.approx(2.0, rel=1e-6)

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

    def test_compare_rejects_mismatched_problems(self, tmp_path):
        c1 = write_config(tmp_path / "a.json")
        c2 = write_config(tmp_path / "b.json", problem={"name": "quadratic-simplex", "n": 3})
        assert main(["compare", str(c1), str(c2)]) == 2


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
