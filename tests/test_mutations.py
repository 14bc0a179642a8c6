"""Mutation smoke test for the checks that guard the certificate.  Each
one-line mutation is applied to a temporary copy of the package, and a named
test must fail on it with an assertion.  Three mutate the values the kernel
carries from one step to the next, killed by a bit-for-bit test against the
reference loops on entropy-lse (h is zero on every indicator problem, so a
wrong h value would survive there): h(x) read at the target, A*u read at the
previous image, and the objective's f read at the step's base instead of its
end point; one flips the choice of certificate to
the higher-valued of the average and the best point, killed by the same
test, whose gcs and gmd runs each have steps where the two values differ;
one lets NaN through the checked oracle call, killed by a run whose
closed-form Bregman distance returns NaN; one moves x toward the previous
step's target, killed by the default ``verify`` suite, whose replays check
that each recorded iterate is the step toward its own oracle target, and
which also kills a replay that keeps f(y_0) as every row's Bregman base
value instead of carrying f(y) from row to row; one weights the new term
of the replay's weighted-sum recursion by 1 - alpha_k instead of 1, killed
by the test of that recursion against the explicit weight rows of every k
on the 2/(k+2) schedule; two give a hybrid curvature line its covector as
the base gradient, u for z = f'(A x) on the primal line and x for
s = (h*)'(-A* u) on the dual line, killed by the bit-for-bit test of
``curvature_along_trace`` against a literal per-step-size Bregman loop on
hybrid.  Four break the reuse of evaluations: a line search's final step
that reuses a plain probe takes h at the base for h at its point, killed by
the reference loops with the exact line search, whose plain runs make such
steps; a segment marks its step size evaluated before D is computed, killed
by a closed form that is +inf once; the log-sum-exp Bregman memo is keyed by
the base array's id, killed by a base changed in place; and a diagonal Q
drops b, killed by the diagonal Q's check against the literal matrix forms.
One keeps the probe memo across a step that moved, killed by the reference
loops with the exact line search, which probes 1 and the two golden points
at every step.  One takes the equivalence checks' deviation as a Python
``max`` over the row maxima, which drops a NaN that follows a number,
killed by a NaN in a late row of the second pairing.

``EQUIVALENT`` lists the mutations no test can kill, each with its reason;
each must still apply to the source, and survive the tests named with it."""

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
CURVATURE = "tests/test_diagnostics.py::TestLiteralBregmanLoop::test_curvature_along_trace[hybrid]"
REFERENCE_LS = ("tests/test_reference_drivers.py::test_drivers_match_reference_loops"
                "[entropy-lse-random-A-exact_ls]")
RAISED = "tests/test_engine.py::test_segment_evaluates_again_after_a_call_that_raised"
LSE_MEMO = "tests/test_reduction_forms.py::test_lse_bregman_memo_gives_the_memo_free_kl"
DIAGONAL = "tests/test_problems.py::test_diagonal_q_is_the_matrix_form_bit_for_bit"
FROZEN = "tests/test_engine.py::test_frozen_search_makes_no_oracle_call"
DEVIATION_NAN = "tests/test_duality.py::test_deviation_keeps_a_nan[1]"
# the modules of tests/ that a killer's file imports
HELPERS = {"tests/test_reference_drivers.py": ["tests/reference_drivers.py"],
           "tests/test_engine.py": ["tests/reference_drivers.py",
                                    "tests/test_reference_drivers.py"]}

# name -> (file of the package, its line, the mutation, the test that kills it)
MUTATIONS = {
    "h-base-from-target": (
        "engine.py",
        "p_val, f_y, h_x = _objective(spec, x, y, primal_seg.h, primal_seg.f)",
        "p_val, f_y, h_x = (*_objective(spec, x, y, primal_seg.h, primal_seg.f)[:2], "
        "_oracle_value(spec, 'h_val', primal_seg.target))",
        REFERENCE),
    "f-value-from-base": (
        "engine.py",
        "primal_seg.h, primal_seg.f)",
        "primal_seg.h, primal_seg.f0)",
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
        "primal_seg = _Segment(spec, x, s, y, z, f_y, h_x)",
        "primal_seg, s_prev = _Segment(spec, x, s if k == 0 else s_prev, y, z, f_y, h_x), s",
        VERIFY),
    "replay-keeps-first-base-f": (
        "certificates.py",
        "x, y, f, h = end, y_end, f_end, h_end",
        "x, y, f, h = end, y_end, f if k else _recorded(spec, 'f_val', y), h_end",
        VERIFY),
    "replay-weight-misplaced": (
        "certificates.py",
        "s = row[k] = keep * s + row[k]",
        "s = row[k] = keep * (s + row[k])",
        WEIGHTS),
    "curvature-primal-base-gradient": (
        "diagnostics.py",
        "_ratios(side, x, s, gamma, y, z)",
        "_ratios(side, x, s, gamma, y, u)",
        CURVATURE),
    "curvature-dual-base-gradient": (
        "diagnostics.py",
        "_ratios(dual, -u, -z, gamma, w, s)",
        "_ratios(dual, -u, -z, gamma, w, x)",
        CURVATURE),
    "reuse-skips-h-read": (
        "engine.py",
        'self.h = _oracle_value(spec, "h_val", self.point)',
        "self.h = self.h_base",
        REFERENCE_LS),
    "alpha-marked-before-d": (
        "engine.py",
        "self.alpha = None  # set again once D is computed",
        "self.alpha = alpha",
        RAISED),
    "lse-memo-keyed-by-id": (
        "problems.py",
        "key, (seen, logp1, p1) = v1.tobytes(), memo",
        "key, (seen, logp1, p1) = id(v1), memo",
        LSE_MEMO),
    "diagonal-q-drops-b": (
        "problems.py",
        "Q, pinv = np.diag(Q).copy(), np.diag(pinv).copy()",
        "Q, pinv, b = np.diag(Q).copy(), np.diag(pinv).copy(), 0.0 * b",
        DIAGONAL),
    "repeat-memo-never-cleared": (
        "engine.py",
        "                memo.clear()",
        "                pass",
        REFERENCE_LS),
    "deviation-drops-nan": (
        "duality.py",
        "return float(np.max([",
        "return float(max([",
        DEVIATION_NAN),
}

# name -> (file of the package, its line, the mutation, a test it survives, why
# no test can kill it)
EQUIVALENT = {
    "repeat-memo-primal-only": (
        "engine.py",
        " or hybrid and dual_seg.moved():",
        ":",
        FROZEN,
        "at alpha = 0 a point is 1.0 * base + 0.0 * target, which differs from the "
        "base only where a base entry is -0.0 and turns +0.0; every later probe "
        "point then differs from the memo's at most in the sign of a zero, which "
        "no oracle that is a function of the real value of its argument can see"),
}


def run_mutant(tmp_path, module, original, mutated, killer):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    test_file = killer.split("::")[0]
    for path in [test_file] + HELPERS.get(test_file, []):
        shutil.copy(ROOT / path, tmp_path / "tests")
    path = tmp_path / "src" / "fenchelduo" / module
    source = path.read_text()
    assert source.count(original) == 1
    path.write_text(source.replace(original, mutated))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line", killer],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def assert_killed(tmp_path, name):
    result = run_mutant(tmp_path, *MUTATIONS[name])
    # exit code 1: the test ran and failed, on a comparison, not on a crash
    assert result.returncode == 1, result.stdout + result.stderr
    assert "AssertionError" in result.stdout and "1 failed" in result.stdout, result.stdout


@pytest.mark.parametrize("name", ["h-base-from-target", "w-from-previous-image",
                                  "f-value-from-base"])
def test_carried_value_mutation_is_killed(tmp_path, name):
    assert_killed(tmp_path, name)


def test_certificate_choice_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "certificate-choice-flipped")


def test_checked_call_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "nan-passes-the-checked-call")


def test_step_target_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "x-toward-previous-target")


def test_replay_base_value_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "replay-keeps-first-base-f")


def test_replay_weight_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "replay-weight-misplaced")


@pytest.mark.parametrize("name", ["curvature-primal-base-gradient",
                                  "curvature-dual-base-gradient"])
def test_curvature_base_gradient_mutation_is_killed(tmp_path, name):
    assert_killed(tmp_path, name)


@pytest.mark.parametrize("name", ["reuse-skips-h-read", "alpha-marked-before-d",
                                  "lse-memo-keyed-by-id", "diagonal-q-drops-b",
                                  "repeat-memo-never-cleared"])
def test_evaluation_reuse_mutation_is_killed(tmp_path, name):
    assert_killed(tmp_path, name)


def test_deviation_nan_mutation_is_killed(tmp_path):
    assert_killed(tmp_path, "deviation-drops-nan")


@pytest.mark.parametrize("name", sorted(EQUIVALENT))
def test_equivalent_mutation_survives(tmp_path, name):
    module, original, mutated, survived, _ = EQUIVALENT[name]
    result = run_mutant(tmp_path, module, original, mutated, survived)
    assert result.returncode == 0, result.stdout + result.stderr
