"""Mutation smoke test for the values the kernel carries from one step to
the next.  Each one-line mutation is applied to a temporary copy of the
package, and a named bit-for-bit test against the reference loops must fail
on it with an assertion.  The problem is entropy-lse: h is zero on every
indicator problem, so a wrong h value would survive there."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KILLER = ("tests/test_reference_drivers.py::test_drivers_match_reference_loops"
          "[entropy-lse-random-A-fixed_harmonic]")

# (name, line of engine.py, its mutation)
MUTATIONS = [
    ("h-base-from-target",
     "p_val, h_x = _objective(spec, x, y, primal_seg.h)",
     "p_val, h_x = (_objective(spec, x, y, primal_seg.h)[0], "
     "_oracle_value(spec, 'h_val', primal_seg.target))"),
    ("w-from-previous-image",
     "u, w = -dual_seg.point, dual_seg.image",
     "u, w = -dual_seg.point, dual_seg.y0"),
]


@pytest.mark.parametrize("original, mutated", [m[1:] for m in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
def test_carried_value_mutation_is_killed(tmp_path, original, mutated):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    for name in ("reference_drivers.py", "test_reference_drivers.py"):
        shutil.copy(ROOT / "tests" / name, tmp_path / "tests")
    engine = tmp_path / "src" / "fenchelduo" / "engine.py"
    source = engine.read_text()
    assert source.count(original) == 1
    engine.write_text(source.replace(original, mutated))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line", KILLER],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    # exit code 1: the test ran and failed, on a comparison, not on a crash
    assert result.returncode == 1, result.stdout + result.stderr
    assert "AssertionError" in result.stdout and "1 failed" in result.stdout, result.stdout
