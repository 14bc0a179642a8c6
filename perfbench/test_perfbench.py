"""Self-test of the benchmark at tiny iteration budgets (``--quick``).

Runs ``perfbench/run.py`` on every workload, untraced and traced, and checks
the shape of its result: the last line of stdout is one JSON object with
exactly ``correct``, ``attempted``, ``failed`` and ``metrics``; every metric
BENCHMARK.json names for the mode is printed with its unit; and every
correctness gate passes.  No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root, workload, trace, seed=0):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=300)


@lru_cache(maxsize=None)
def quick_result(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit_and_gates_pass(workload, trace):
    result, stdout = quick_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_traced_counts_repeat_across_runs():
    first, _ = quick_result("ls-dense", 1)
    again = bench(ROOT, "ls-dense", 1)
    second = json.loads(again.stdout.strip().splitlines()[-1])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "count/iter", "count/step")]
    assert {c: first["metrics"][c] for c in counts} == {c: second["metrics"][c] for c in counts}
    assert first["metrics"]["steps.probes"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
