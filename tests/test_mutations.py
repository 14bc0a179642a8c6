"""Mutation smoke test for the checks that guard the certificate.  Each
one-line mutation is applied to a temporary copy of the package, and a named
test must fail on it with an assertion.  Two mutate the values the kernel
carries from one step to the next, killed by a bit-for-bit test against the
reference loops on entropy-lse (h is zero on every indicator problem, so a
wrong h value would survive there); one flips the choice of certificate to
the higher-valued of the average and the best point, killed by the same
test, whose gcs and gmd runs each have steps where the two values differ;
one lets NaN through the checked oracle call, killed by a run whose
closed-form Bregman distance returns NaN; one moves x toward the previous
step's target, killed by the default ``verify`` suite, whose replays check
that each recorded iterate is the step toward its own oracle target; one
weights the new term of the replay's weighted-sum recursion by 1 - alpha_k
instead of 1, killed by the test of that recursion against the explicit
weight rows of every k on the 2/(k+2) schedule."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ("tests/test_reference_drivers.py::test_drivers_match_reference_loops"
             "[entropy-lse-random-A-fixed_harmonic]")
CHECKED = "tests/test_checked_oracles.py::test_nan_closed_form_bregman_ends_run[fixed_harmonic]"
VERIFY = "tests/test_cli.py::TestVerify::test_default_suite_passes"
WEIGHTS = "tests/test_certificates.py::TestClosedFormReplay::test_matches_row_recursion[harmonic]"

# name -> (file of the package, its line, the mutation, the test that kills it)
MUTATIONS = {
    "h-base-from-target": (
        "engine.py",
        "p_val, h_x = _objective(spec, x, y, primal_seg.h)",
        "p_val, h_x = (_objective(spec, x, y, primal_seg.h)[0], "
        "_oracle_value(spec, 'h_val', primal_seg.target))",
        REFERENCE),
    "w-from-previous-image": (
        "engine.py",
        "u, w = -dual_seg.point, dual_seg.image",
        "u, w = -dual_seg.point, dual_seg.y0",
        REFERENCE),
    "certificate-choice-flipped": (
        "engine.py",
        "if best < u_val else",
        "if best > u_val else",
        REFERENCE),
    "nan-passes-the-checked-call": (
        "oracles.py",
        "if math.isnan(out):",
        "if False:",
        CHECKED),
    "x-toward-previous-target": (
        "engine.py",
        "primal_seg = _Segment(spec, x, s, y, h_x)",
        "primal_seg, s_prev = _Segment(spec, x, s if k == 0 else s_prev, y, h_x), s",
        VERIFY),
    "replay-weight-misplaced": (
        "certificates.py",
        "s = row[k] = keep * s + row[k]",
        "s = row[k] = keep * (s + row[k])",
        WEIGHTS),
}


def assert_killed(tmp_path, name):
    module, original, mutated, killer = MUTATIONS[name]
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    test_file = killer.split("::")[0]
    # the reference loops are a module of their own, which their test imports
    helpers = ["tests/reference_drivers.py"] if killer == REFERENCE else []
    for path in [test_file] + helpers:
        shutil.copy(ROOT / path, tmp_path / "tests")
    path = tmp_path / "src" / "fenchelduo" / module
    source = path.read_text()
    assert source.count(original) == 1
    path.write_text(source.replace(original, mutated))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line", killer],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    # exit code 1: the test ran and failed, on a comparison, not on a crash
    assert result.returncode == 1, result.stdout + result.stderr
    assert "AssertionError" in result.stdout and "1 failed" in result.stdout, result.stdout


@pytest.mark.parametrize("name", ["h-base-from-target", "w-from-previous-image"])
def test_carried_value_mutation_is_killed(tmp_path, name):
    assert_killed(tmp_path, name)


def test_certificate_choice_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "certificate-choice-flipped")


def test_checked_call_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "nan-passes-the-checked-call")


def test_step_target_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "x-toward-previous-target")


def test_replay_weight_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "replay-weight-misplaced")
