"""The benchmark's workloads: seeded inputs, set-up, and the jobs of one pass.

A workload is built in two steps.  ``inputs(seed)`` draws the random arrays
(the benchmark's inputs; the library only ever receives the arrays).
``build(...)`` is the timed set-up: it constructs every ``ProblemSpec``,
start point and CLI config file the jobs need, and returns the jobs.

A job runs one public entry point of the package and returns an
``Outcome``: its wall time, the runs it produced (each gated for
correctness, see ``gate``) and any pass/fail checks it reports.  Jobs with
``certify=True`` make up ``certify_s``; every run makes up ``iters_per_s``,
and every run with an ``eps`` makes up ``time_to_eps_s``.

Each job states its iteration budget and the certified gap ``eps`` it must
reach within it, once for the full benchmark and once for ``--quick``, the
tiny-K size used by the self-test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

import fenchelduo as fd
from fenchelduo import cli

from tracing import DRIVERS, patched

# Correctness gates.  The identity and sandwich tolerances are the library's
# own (ROADMAP: identity 1e-8, weak duality 1e-9).  Final gap bounds may
# drift from the recorded values by DRIFT_RTOL relative plus DRIFT_ATOL
# absolute: exact line-search step sizes are allowed to move by about 1e-11,
# and runs that converge to ~1e-14 stall on rounding, not on the method.
RESIDUAL_TOL = 1e-8
WEAK_DUALITY_TOL = 1e-9
SANDWICH_TOL = 1e-8
DRIFT_RTOL = 1e-6
DRIFT_ATOL = 1e-12

# job name -> ((k_max, eps), (quick k_max, quick eps)); eps None = no target
SIZES = {
    # ls-dense
    "gcs-exact-plain-qs": ((300, 1.0), (30, 10.0)),
    "gcs-exact-sharp-qs": ((300, 1.0), (30, 10.0)),
    "gmd-exact-entropy": ((200, 1.0), (30, 1.0)),
    "hybrid-exact-entropy": ((200, 1.0), (30, 1.0)),
    "verify-qs": ((40, None), (10, None)),
    # schedule-smooth
    "gcs-harmonic-entropy": ((1000, 1.0), (40, 1.0)),
    "gmd-open1.5-entropy": ((1000, 2.0), (40, 5.0)),
    "hybrid-harmonic-entropy": ((1000, 2.0), (40, 5.0)),
    "gcs-open1.5-holder": ((1000, 1.0), (40, 10.0)),
    "cli-hybrid-harmonic-holder": ((1000, 1.0), (40, 10.0)),
    "verify-holder": ((100, None), (10, None)),
    # certify-replay
    "verify-default": ((600, None), (40, None)),
}

# eps of the nine driver runs inside the default `fenchel-duo verify` suite,
# in its order: per config (quadratic-simplex n=2, entropy-lse n=3,
# quadratic-simplex with a random 5x3 map) the runs gcs, gmd, hybrid.  The
# mirror-descent bound on the two indicator problems levels off at a
# constant, so those runs state no target.
VERIFY_EPS = ((1e-2, None, 1e-2, 1e-6, 1e-6, 1e-6, 0.5, None, 0.5),
              (0.5, None, 0.5, 1e-2, 1e-2, 1e-2, 5.0, None, 5.0))


@dataclass
class View:
    """The columns of one finished run that the gates and metrics read."""

    alphas: list
    gap_bound: list
    true_gap: list
    residual: list
    t_ms: list
    error: Optional[str]

    @property
    def k(self) -> int:
        return len(self.alphas)

    @classmethod
    def of(cls, trace) -> "View":
        gap = trace.gap_sharp if trace.mode == "sharp" else trace.gap_plain
        return cls(trace.alphas, gap, trace.true_gap, trace.residual, trace.t_ms, trace.error)

    @classmethod
    def from_artifacts(cls, outdir: str) -> "View":
        with open(os.path.join(outdir, "trace.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(outdir, "summary.json")) as fh:
            error = json.load(fh)["error"]

        def col(name):
            return [float(r[name]) for r in rows]

        return cls(col("alpha"), col("gap_bound"), col("true_gap"), col("residual"),
                   col("t_ms"), error)


@dataclass
class Run:
    name: str
    view: View
    seconds: float
    eps: Optional[float]

    @property
    def k_eps(self) -> Optional[int]:
        """First k whose certified bound is at most eps (None: no eps, or not reached)."""
        if self.eps is None:
            return None
        return next((i + 1 for i, g in enumerate(self.view.gap_bound) if g <= self.eps), None)

    @property
    def stalls(self) -> int:
        return sum(a == 0.0 for a in self.view.alphas[1:])


@dataclass
class Outcome:
    seconds: float
    runs: List[Run] = field(default_factory=list)
    checks: List[tuple] = field(default_factory=list)  # (label, passed)


@dataclass
class Job:
    name: str
    certify: bool
    call: Callable  # (layers, keep_runs) -> Outcome


def gate(run: Run, reference: dict) -> List[str]:
    """Reasons the run fails the benchmark's correctness gate (empty: passes)."""
    v = run.view
    if v.error:
        return [f"error: {v.error}"]
    if v.k == 0:
        return ["no iterations"]
    bad = []
    residual = max(v.residual)
    if residual > RESIDUAL_TOL:
        bad.append(f"streaming residual {residual:.3e} > {RESIDUAL_TOL:g}")
    if min(v.true_gap) < -WEAK_DUALITY_TOL:
        bad.append(f"true gap {min(v.true_gap):.3e} below -{WEAK_DUALITY_TOL:g}")
    excess = max(t - g for t, g in zip(v.true_gap, v.gap_bound))
    if excess > SANDWICH_TOL:
        bad.append(f"true gap exceeds the bound by {excess:.3e}")
    if run.eps is not None and run.k_eps is None:
        bad.append(f"eps {run.eps:g} not certified within k={v.k}")
    ref = reference.get(run.name)
    if ref is not None and abs(v.gap_bound[-1] - ref) > DRIFT_RTOL * abs(ref) + DRIFT_ATOL:
        bad.append(f"final gap bound {v.gap_bound[-1]!r} drifted from recorded {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# job kinds
# ---------------------------------------------------------------------------

def _cli(layers, span: str, argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = layers.span(span, cli.main)(argv)
    return rc, out.getvalue(), err.getvalue()


def driver_job(name, quick, run, spec, starts, rule, mode="plain") -> Job:
    k_max, eps = SIZES[name][quick]

    def call(layers, keep_runs=True):
        fn = layers.driver(run)
        start = time.perf_counter()
        trace = fn(layers.spec(spec), *starts, layers.rule(rule), k_max, mode=mode)
        seconds = time.perf_counter() - start
        return Outcome(seconds, [Run(name, View.of(trace), seconds, eps)])

    return Job(name, False, call)


def cli_run_job(name, quick, config_path, outdir) -> Job:
    """`fenchel-duo run` on a config file; the run is read back from its
    artifacts, as a user of the command would read it."""
    _, eps = SIZES[name][quick]

    def call(layers, keep_runs=True):
        start = time.perf_counter()
        rc, _, err = _cli(layers, "cli.run", ["run", "--config", config_path, "--out", outdir])
        seconds = time.perf_counter() - start
        layers.count("cli.bytes_written", sum(
            os.path.getsize(os.path.join(outdir, f)) for f in ("trace.csv", "summary.json")))
        run = Run(name, View.from_artifacts(outdir), seconds, eps)
        return Outcome(seconds, [run], [(f"{name} exit code {rc} {err.strip()}", rc == 0)])

    return Job(name, False, call)


def verify_job(name, quick, argv, eps=None) -> Job:
    """`fenchel-duo verify --kmax K`; every reported check must PASS.  With
    ``eps`` the driver runs inside the command are kept as runs of the
    workload."""
    argv = ["verify", *argv, "--kmax", str(SIZES[name][quick][0])]

    def call(layers, keep_runs=True):
        recorded = []

        def recorder(fn):
            def run(*args, **kwargs):
                start = time.perf_counter()
                trace = fn(*args, **kwargs)
                recorded.append((trace.algo, View.of(trace), time.perf_counter() - start))
                return trace
            return run

        keep = eps is not None and keep_runs
        hooks = [(cli, d, recorder(getattr(cli, d))) for d in DRIVERS] if keep else []
        with patched(hooks):
            start = time.perf_counter()
            rc, out, err = _cli(layers, "cli.verify", argv)
            seconds = time.perf_counter() - start
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        layers.count("cli.verify.checks", len(lines))
        checks = [(line, line.startswith("PASS")) for line in lines]
        checks.append((f"{name} exit code {rc} {err.strip()}", rc == 0 and bool(lines)))
        runs = [Run(f"{name}/{i // 3}/{algo}", view, sec, eps[i])
                for i, (algo, view, sec) in enumerate(recorded)]
        return Outcome(seconds, runs, checks)

    return Job(name, True, call)


def probe_job(name, spec, seed) -> Job:
    def call(layers, keep_runs=True):
        probe = layers.span("diagnostics.probe_curvature", fd.probe_curvature)
        start = time.perf_counter()
        est = probe(layers.spec(spec), 2.0, n_samples=200, seed=seed)
        seconds = time.perf_counter() - start
        good = math.isfinite(est.c_hat) and est.c_hat > 0.0 and est.skipped == 0
        return Outcome(seconds, [], [(f"{name} c_hat {est.c_hat!r} skipped {est.skipped}", good)])

    return Job(name, True, call)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _write_config(workdir, name, config) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def _gcs_start(spec):
    return (spec.h_conj_grad(np.zeros(spec.dim_x)),)


def _hybrid_start(spec):
    x0 = spec.h_conj_grad(np.zeros(spec.dim_x))
    return x0, spec.f_grad(spec.linmap.apply(x0))


def _gmd_start(spec):
    return (np.zeros(spec.dim_y),)


def ls_dense_inputs(seed):
    rng = np.random.default_rng([seed, 1])
    return {"A": rng.standard_normal((100, 200)), "b": rng.standard_normal(100),
            "E": rng.standard_normal((50, 50)), "e": rng.standard_normal(50)}


def ls_dense(inp, layers, workdir, quick, seed):
    qs = layers.span("problems.build", fd.make_quadratic_simplex)(b=inp["b"], n=200, a=inp["A"])
    ent = layers.span("problems.build", fd.make_entropy_lse)(50, a=inp["E"], b=inp["e"])
    ls = fd.ExactLineSearch()
    config = _write_config(workdir, "verify-qs.json", {
        "problem": {"name": "quadratic-simplex", "n": 200,
                    "a": inp["A"].tolist(), "b": inp["b"].tolist()},
        "rule": {"name": "exact_ls"}})
    return [
        driver_job("gcs-exact-plain-qs", quick, fd.run_gcs, qs, _gcs_start(qs), ls),
        driver_job("gcs-exact-sharp-qs", quick, fd.run_gcs, qs, _gcs_start(qs), ls,
                   mode="sharp"),
        driver_job("gmd-exact-entropy", quick, fd.run_gmd, ent, _gmd_start(ent), ls),
        driver_job("hybrid-exact-entropy", quick, fd.run_hybrid, ent, _hybrid_start(ent), ls),
        verify_job("verify-qs", quick, ["--config", config]),
    ]


def schedule_smooth_inputs(seed):
    # the two Holder runs get a matrix each: their certified-gap constants
    # vary from seed to seed, and two independent draws halve that variance
    # in time_to_eps_s
    rng = np.random.default_rng([seed, 2])
    return {"E": rng.standard_normal((50, 50)), "e": rng.standard_normal(50),
            "H": rng.standard_normal((50, 50)), "G": rng.standard_normal((50, 50))}


def schedule_smooth(inp, layers, workdir, quick, seed):
    ent = layers.span("problems.build", fd.make_entropy_lse)(50, a=inp["E"], b=inp["e"])
    hold = layers.span("problems.build", fd.make_holder_power_simplex)(1.5, 50, a=inp["H"])
    harmonic, open_loop = fd.FixedHarmonic(), fd.OpenLoop(1.5)
    holder = {"name": "holder-power-simplex", "n": 50, "p": 1.5, "a": inp["G"].tolist()}
    run_config = _write_config(workdir, "run-holder.json", {
        "problem": holder, "algorithm": "hybrid", "rule": {"name": "fixed_harmonic"},
        "k_max": SIZES["cli-hybrid-harmonic-holder"][quick][0]})
    verify_config = _write_config(workdir, "verify-holder.json", {
        "problem": holder, "rule": {"name": "fixed_harmonic"}})
    return [
        driver_job("gcs-harmonic-entropy", quick, fd.run_gcs, ent, _gcs_start(ent), harmonic),
        driver_job("gmd-open1.5-entropy", quick, fd.run_gmd, ent, _gmd_start(ent), open_loop),
        driver_job("hybrid-harmonic-entropy", quick, fd.run_hybrid, ent, _hybrid_start(ent),
                   harmonic),
        driver_job("gcs-open1.5-holder", quick, fd.run_gcs, hold, _gcs_start(hold), open_loop),
        cli_run_job("cli-hybrid-harmonic-holder", quick, run_config,
                    os.path.join(workdir, "run-holder")),
        verify_job("verify-holder", quick, ["--config", verify_config]),
    ]


def certify_replay(inp, layers, workdir, quick, seed):
    qs = layers.span("problems.build", fd.make_quadratic_simplex)(b=inp["b"], n=200, a=inp["A"])
    return [
        verify_job("verify-default", quick, ["--seed", str(seed)], eps=VERIFY_EPS[quick]),
        probe_job("probe-curvature-qs", qs, seed),
    ]


WORKLOADS = {
    "ls-dense": (ls_dense_inputs, ls_dense),
    "schedule-smooth": (schedule_smooth_inputs, schedule_smooth),
    "certify-replay": (ls_dense_inputs, certify_replay),
}
