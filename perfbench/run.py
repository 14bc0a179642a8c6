"""fenchelduo benchmark driver.

    python3 perfbench/run.py --workload ls-dense --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  Workloads (see ``workloads.py`` and README.md): ``ls-dense``,
``schedule-smooth``, ``certify-replay``.

``--trace 0`` measures the end-to-end metrics with no instrumentation: whole
passes over the workload's jobs, each after three timed set-up builds, until
``--seconds`` have elapsed, then one separate tracemalloc pass for the memory
peak.  Every timing is the fastest seen over the passes (see ``Best``).
``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics, after checking that tracing changes no result
and that every count repeats exactly from pass to pass.

Every run of every pass goes through the correctness gate in
``workloads.gate``; ``failed``/``attempted`` in the result count gated runs
and reported checks.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PER_PASS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--quick", action="store_true",
                   help="tiny iteration budgets (self-test); no recorded references apply")
    return p.parse_args(argv)


def provenance_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
    return ref


def provenance(args):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fenchelduo").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "commit": provenance_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(jobs, layers):
    """Run every job once; returns the outcomes in job order."""
    with layers.hooks():
        return [job.call(layers) for job in jobs]


class Best:
    """Fastest time seen for every run and job over the passes of a run.

    Interference from other tenants of a shared machine only ever slows a
    job down, so the fastest of many short repetitions is the estimate it
    disturbs least (README.md gives the spreads measured both ways).
    """

    def __init__(self):
        self.run_s, self.eps_s, self.certify_s, self.iterations = {}, {}, {}, {}

    @staticmethod
    def _keep(table, key, seconds):
        table[key] = min(seconds, table.get(key, seconds))

    def add(self, jobs, outcomes):
        for job, outcome in zip(jobs, outcomes):
            if job.certify:
                self._keep(self.certify_s, job.name, outcome.seconds)
            for r in outcome.runs:
                self._keep(self.run_s, r.name, r.seconds)
                self.iterations[r.name] = r.view.k
                if r.k_eps is not None:
                    self._keep(self.eps_s, r.name, r.view.t_ms[r.k_eps - 1] / 1e3)

    def figures(self):
        return {
            "iters_per_s": sum(self.iterations.values()) / sum(self.run_s.values()),
            "time_to_eps_s": sum(self.eps_s.values()),
            "certify_s": sum(self.certify_s.values()),
        }


class Ledger:
    """Gate results over a whole run: attempted, failed, and the reasons."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def check(self, label, passed):
        self.attempted += 1
        if not passed:
            self.failures.append(label)

    def gate(self, outcomes):
        from workloads import gate

        for outcome in outcomes:
            for run in outcome.runs:
                bad = gate(run, self.reference)
                self.check(f"{run.name}: {'; '.join(bad)}", not bad)
            for label, passed in outcome.checks:
                self.check(label, passed)


def print_jobs(outcomes, reference):
    from workloads import gate

    print(f"{'run':34s} {'k':>5s} {'eps':>8s} {'k_eps':>6s} {'t_eps_ms':>10s} {'stalls':>6s} "
          f"{'final_gap_bound':>22s} {'drift_ref':>9s} {'ms':>9s} gate")
    for o in outcomes:
        for r in o.runs:
            k_eps = r.k_eps
            t_eps = f"{r.view.t_ms[k_eps - 1]:.1f}" if k_eps else "-"
            eps = f"{r.eps:g}" if r.eps is not None else "-"
            bad = gate(r, reference)
            print(f"{r.name:34s} {r.view.k:5d} {eps:>8s} {str(k_eps or '-'):>6s} {t_eps:>10s} "
                  f"{r.stalls:6d} {r.view.gap_bound[-1]!r:>22s} "
                  f"{'yes' if r.name in reference else 'none':>9s} {r.seconds * 1e3:9.1f} "
                  f"{'PASS' if not bad else 'FAIL ' + '; '.join(bad)}")
        for label, passed in o.checks:
            if not passed:
                print(f"FAIL {label}")


def measure_untraced(args, build, jobs_inputs, workdir, ledger):
    from tracing import Layers

    layers = Layers()
    setup, per_pass, best = [], [], Best()
    deadline = time.perf_counter() + args.seconds
    while True:
        # set-up is timed before every pass, so that its samples spread over
        # the whole run like those of the passes
        for _ in range(SETUP_PER_PASS):
            start = time.perf_counter()
            jobs = build(jobs_inputs, layers, workdir, args.quick, args.seed)
            setup.append(time.perf_counter() - start)
        outcomes = run_pass(jobs, layers)
        ledger.gate(outcomes)
        if not per_pass:
            print_jobs(outcomes, ledger.reference)
        this_pass = Best()
        this_pass.add(jobs, outcomes)
        per_pass.append(this_pass.figures())
        best.add(jobs, outcomes)
        del outcomes
        if time.perf_counter() >= deadline:
            break

    peaks = {}
    for job in jobs:
        gc.collect()  # the same collector state before every job: peaks repeat exactly
        tracemalloc.start()
        try:
            job.call(layers, keep_runs=False)
            peaks[job.name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    values = best.figures()
    values["setup_s"] = min(setup)
    values["peak_mem_mb"] = max(peaks.values())
    print(f"passes: {len(per_pass)}; set-up builds: {len(setup)}")
    for key in ("iters_per_s", "time_to_eps_s", "certify_s"):
        series = sorted(f[key] for f in per_pass)
        print(f"{key}: best {values[key]:.6g}; per pass median {statistics.median(series):.6g} "
              f"min {series[0]:.6g} max {series[-1]:.6g} over {len(series)} passes")
    print(f"setup_s: best {min(setup):.6g}; median {statistics.median(setup):.6g} "
          f"max {max(setup):.6g} over {len(setup)} builds")
    print("peak_mem_mb per job: " + ", ".join(f"{k} {v:.3f}" for k, v in peaks.items()))
    return values


def layer_figures(tracer):
    from tracing import ORACLES

    ms = {name: total * 1e3 for name, total in tracer.total.items()}
    calls, counts = tracer.calls, tracer.counts
    iterations = counts["engine.iterations"]
    select_calls = calls["steps.select"]
    figures = {"problems.build.ms": ms.get("problems.build", 0.0)}
    for o in ORACLES + ("apply", "adjoint"):
        figures[f"oracles.{o}.calls"] = calls[f"oracles.{o}"]
        figures[f"oracles.{o}.ms"] = ms.get(f"oracles.{o}", 0.0)
    figures.update({
        "oracles.matvecs_per_iter": counts["oracles.matvecs"] / iterations if iterations else 0.0,
        "oracles.matvec_bytes_computed": counts["oracles.matvec_bytes_computed"],
        "steps.select.calls": select_calls,
        "steps.select.self_ms": tracer.self_time["steps.select"] * 1e3,
        "steps.probes": counts["steps.probes"],
        "steps.probes_per_step": counts["steps.probes"] / select_calls if select_calls else 0.0,
        "steps.stalls": counts["steps.stalls"],
        "engine.run.ms": ms.get("engine.run", 0.0),
        "engine.self_ms": tracer.self_time["engine.run"] * 1e3,
        "engine.iterations": iterations,
        "certificates.replay.calls": calls["certificates.replay"],
        "certificates.replay.ms": ms.get("certificates.replay", 0.0),
        "certificates.weight_rows.calls": calls["certificates.weight_rows"],
        "duality.bach.ms": ms.get("duality.bach", 0.0),
        "duality.symmetry.ms": ms.get("duality.symmetry", 0.0),
        "diagnostics.probe_curvature.ms": ms.get("diagnostics.probe_curvature", 0.0),
        "cli.run.ms": ms.get("cli.run", 0.0),
        "cli.write_trace_csv.ms": ms.get("cli.write_trace_csv", 0.0),
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.verify.checks": counts["cli.verify.checks"],
    })
    return figures


def results_of(outcomes):
    """Everything of a pass that tracing must not change: alphas and bounds."""
    return [(r.name, list(r.view.alphas), list(r.view.gap_bound))
            for o in outcomes for r in o.runs]


def measure_traced(args, build, jobs_inputs, workdir, ledger, units):
    from tracing import Layers, Tracer

    jobs = build(jobs_inputs, Layers(), workdir, args.quick, args.seed)
    untraced, traced, traced_layers = Best(), Best(), []
    reference_results = None
    deadline = time.perf_counter() + args.seconds
    while True:
        outcomes = run_pass(jobs, Layers())
        ledger.gate(outcomes)
        untraced.add(jobs, outcomes)
        if reference_results is None:
            reference_results = results_of(outcomes)
            print_jobs(outcomes, ledger.reference)

        tracer = Tracer()
        traced_jobs = build(jobs_inputs, tracer, workdir, args.quick, args.seed)
        outcomes = run_pass(traced_jobs, tracer)
        ledger.gate(outcomes)
        ledger.check("traced run reproduces the untraced alphas and gap bounds bit for bit",
                     results_of(outcomes) == reference_results)
        traced.add(traced_jobs, outcomes)
        traced_layers.append(layer_figures(tracer))
        del outcomes
        if time.perf_counter() >= deadline:
            break

    # times vary from pass to pass, and so does the CSV text of the t_ms column
    varying = {name for name, unit in units.items() if unit == "ms"}
    varying.add("cli.bytes_written")
    first = traced_layers[0]
    for other in traced_layers[1:]:
        moved = sorted(k for k in first if k not in varying and other[k] != first[k])
        ledger.check(f"traced counts repeat exactly from pass to pass (moved: {moved})", not moved)
    figures = {k: (statistics.median(f[k] for f in traced_layers) if k in varying else first[k])
               for k in first}
    figures["engine.iters_per_s_traced"] = traced.figures()["iters_per_s"]
    figures["engine.iters_per_s_untraced"] = untraced.figures()["iters_per_s"]
    figures["engine.trace_overhead_ratio"] = (figures["engine.iters_per_s_traced"]
                                              / figures["engine.iters_per_s_untraced"])
    print(f"traced passes: {len(traced_layers)}, each after an untraced pass")
    print(f"tracing overhead: traced/untraced iters_per_s = "
          f"{figures['engine.iters_per_s_traced']:.6g} / "
          f"{figures['engine.iters_per_s_untraced']:.6g} = "
          f"{figures['engine.trace_overhead_ratio']:.4f} (fastest pass of each)")
    return figures


def bootstrap():
    """Pin BLAS to one thread and import the package from this checkout's
    ``src/``.  Returns an error message, or None when ready."""
    package = ROOT / "src" / "fenchelduo" / "__init__.py"
    if not package.is_file():
        return f"no package at {package}: run from a checkout of the repository"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import fenchelduo

    if Path(fenchelduo.__file__).resolve() != package.resolve():
        return f"imported fenchelduo from {fenchelduo.__file__}, not {package}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    error = bootstrap() or (None if spec_file.is_file() else f"no {spec_file}")
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (options: {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    reference = {}
    if not args.quick:
        recorded = json.loads((HERE / "reference.json").read_text())["final_gap_bound"]
        reference = recorded.get(args.workload, {}).get(str(args.seed), {})

    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    print(f"drift gate: {len(reference)} recorded final gap bounds for seed {args.seed}"
          + ("" if reference else " (none recorded: drift not checked)"))
    inputs, build = WORKLOADS[args.workload]
    ledger = Ledger(reference)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        if args.trace:
            values = measure_traced(args, build, inputs(args.seed), workdir, ledger, units)
        else:
            values = measure_untraced(args, build, inputs(args.seed), workdir, ledger)
    if set(units) != set(values):
        raise RuntimeError("metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for label in ledger.failures:
        print(f"FAILED: {label}")
    print(f"failed_frac: {len(ledger.failures)}/{ledger.attempted}")
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
