"""Per-layer accounting, recorded from outside the package.

Every span sits around a call into a public name of one module (layer):
the oracles of a frozen ``ProblemSpec`` and its ``LinearMap`` are wrapped
with ``dataclasses.replace``, step rules are wrapped in a delegating object,
and the module-level names that ``fenchelduo.cli``, ``fenchelduo.duality``
and ``fenchelduo.certificates`` look up are swapped for the duration of a
pass.  No file of the package changes.

``Layers`` is the untraced stand-in: every hook hands its argument back
unchanged, so the untraced run executes exactly the package's own code.
``Tracer`` aggregates spans by name (calls, total time, self time) and plain
counters.  Self time is a span's duration minus the time of the spans
nested directly inside it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter, defaultdict

from fenchelduo import certificates, cli, duality

ORACLES = ("f_val", "f_grad", "f_conj_val", "h_val", "h_conj_val", "h_conj_grad",
           "breg_f", "breg_hconj")
DRIVERS = ("run_gcs", "run_gmd", "run_hybrid")


@contextlib.contextmanager
def patched(targets):
    """Temporarily set ``module.name = value`` for each (module, name, value)."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for module, name, value in targets:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


class Layers:
    """Untraced run: no span, no counter, the package's own objects."""

    def span(self, name, fn):
        return fn

    def count(self, name, n=1):
        pass

    def spec(self, spec):
        return spec

    def rule(self, rule):
        return rule

    def driver(self, fn):
        return fn

    def hooks(self):
        return contextlib.nullcontext()


class TracedRule:
    """Step rule wrapper: spans ``select``, counts probes of ``d_fun`` and
    steps that end at alpha = 0 (stalls)."""

    def __init__(self, rule, tracer):
        self._rule = rule
        self._tracer = tracer
        self._select = tracer.span("steps.select", rule.select)

    def __getattr__(self, name):
        return getattr(self._rule, name)

    def select(self, k, gap, d_fun):
        counts = self._tracer.counts

        def probe(a):
            counts["steps.probes"] += 1
            return d_fun(a)

        alpha = self._select(k, gap, probe)
        if k > 0 and alpha == 0.0:
            counts["steps.stalls"] += 1
        return alpha


class Tracer(Layers):
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [start, time of nested spans] per open span

    def span(self, name, fn):
        if fn is None:
            return None
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[0]
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def count(self, name, n=1):
        self.counts[name] += n

    def _matvec(self, name, fn, nbytes):
        counts = self.counts

        def counted(v):
            counts["oracles.matvecs"] += 1
            counts["oracles.matvec_bytes_computed"] += nbytes
            return fn(v)

        return self.span(name, counted)

    def spec(self, spec):
        lm = spec.linmap
        if lm.matrix is None:
            apply = self.span("oracles.apply", lm.apply)
            adjoint = self.span("oracles.adjoint", lm.adjoint)
        else:
            nbytes = 8 * lm.matrix.size  # float64 entries read per product
            apply = self._matvec("oracles.apply", lm.apply, nbytes)
            adjoint = self._matvec("oracles.adjoint", lm.adjoint, nbytes)
        linmap = dataclasses.replace(lm, apply=apply, adjoint=adjoint)
        wrapped = {o: self.span(f"oracles.{o}", getattr(spec, o)) for o in ORACLES}
        return dataclasses.replace(spec, linmap=linmap, **wrapped)

    def rule(self, rule):
        return TracedRule(rule, self)

    def driver(self, fn):
        run = self.span("engine.run", fn)

        def counted(*args, **kwargs):
            trace = run(*args, **kwargs)
            self.counts["engine.iterations"] += trace.k
            return trace

        return counted

    def hooks(self):
        """Swap the public names the cli, duality and certificate modules
        look up, so that calls made inside ``fenchel-duo`` are traced too."""
        build_problem = self.span("problems.build", cli.build_problem)
        build_rule = cli.build_rule
        targets = [
            (cli, "build_problem", lambda pconf, seed: self.spec(build_problem(pconf, seed))),
            (cli, "build_rule", lambda rconf: self.rule(build_rule(rconf))),
            (cli, "check_bach_equivalence", self.span("duality.bach", cli.check_bach_equivalence)),
            (cli, "check_hybrid_symmetry", self.span("duality.symmetry", cli.check_hybrid_symmetry)),
            (cli, "probe_curvature", self.span("diagnostics.probe_curvature", cli.probe_curvature)),
            (cli, "write_trace_csv", self.span("cli.write_trace_csv", cli.write_trace_csv)),
        ]
        for name in ("cg_identity_residuals", "md_identity_residuals", "hybrid_identity_residuals"):
            targets.append((cli, name, self.span("certificates.replay", getattr(cli, name))))
        for module in (cli, certificates):
            targets.append((module, "weight_rows",
                            self.span("certificates.weight_rows", module.weight_rows)))
        for module in (cli, duality):
            for name in DRIVERS:
                targets.append((module, name, self.driver(getattr(module, name))))
        return patched(targets)
