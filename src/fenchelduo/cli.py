"""Command-line harness: run experiments, verify certificate identities,
probe curvature, fit the rate of a trace file, and compare configurations.

Subcommands: run, verify, probe, rate, compare; each takes only the flags it
reads (``_SUBCOMMANDS``), and rate none.  Experiments are described by a JSON
config.  A flag sets the config key of the same name (``--kmax`` sets
``k_max``); the rule, its parameter and the mode come from the config alone.
``resolve`` checks every key once, unknown keys and types included, before
any oracle is built.  Traces are written as CSV with a fixed column set at 17
significant digits so files round-trip 64-bit floats; summaries are JSON with
sorted keys.  Exit codes: 1 for failed verification, 2 for config and usage
errors, 3 for oracle/domain errors (a partial trace is still written), 141
when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .certificates import (
    cg_identity_residuals,
    hybrid_identity_residuals,
    md_identity_residuals,
    weight_rows,
)
from .diagnostics import fit_rate, probe_curvature
from .duality import check_bach_equivalence, check_hybrid_symmetry
from .engine import Trace, run_gcs, run_gmd, run_hybrid
from .oracles import (ConstructionError, DomainError, FenchelDuoError, FitError, InfiniteValue,
                      LinearMap, ProblemSpec, RangeError, StateError, _oracle_point)
from .problems import (
    make_entropy_lse,
    make_holder_power_simplex,
    make_quadratic_box,
    make_quadratic_l1_ball,
    make_quadratic_simplex,
    random_linear_map,
)
from .steps import _RULES, FixedHarmonic, StepRule

CSV_HEADER = "k,alpha,primal,dual,gap_bound,true_gap,residual,t_ms"


class ConfigError(Exception):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_MAX_ENTRIES = np.iinfo(np.intp).max // 8  # the most float64 entries of one numpy array
_TOP_KEYS = {"problem", "algorithm", "rule", "k_max", "epsilon", "mode", "seed", "x0", "u0",
             "v0", "out"}
_PROBLEM_KEYS = {
    "quadratic-simplex": {"name", "n", "q", "b", "a"},
    "quadratic-box": {"name", "n", "q", "b", "a", "lower", "upper"},
    "quadratic-l1": {"name", "n", "q", "b", "a", "radius"},
    "entropy-lse": {"name", "n", "f", "q", "b", "a"},
    "holder-power-simplex": {"name", "n", "p", "a"},
}
_RULE_KEYS = {name: {f.name for f in dataclasses.fields(cls)} for name, cls in _RULES.items()}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _is_number(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and bool(np.isfinite(value)))


def _number(value, where: str, integer: bool = False):
    """``value`` if it is a finite JSON number (an integer if asked); a boolean is neither."""
    if not _is_number(value) or (integer and not isinstance(value, int)):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return value


def _floats(value, where: str) -> np.ndarray:
    try:  # checked numbers; a JSON integer may lie beyond float range
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ConfigError(f"{where} has a number too large for a float") from None


def _array(value, where: str, ndim: int) -> np.ndarray:
    """A list of numbers (``ndim`` 1), or a nonempty list of equal-length rows
    of numbers (``ndim`` 2), as a float array."""
    rows = value if ndim == 2 and isinstance(value, (list, tuple)) else [value]
    if not (all(isinstance(r, (list, tuple)) and all(map(_is_number, r)) for r in rows)
            and len({len(r) for r in rows}) == 1):
        raise ConfigError(f"{where} must be a list of {'equal-length rows of ' * (ndim - 1)}"
                          "numbers")
    return _floats(value, where)


def _build_map(aconf, n: int, seed: int, square: bool) -> Optional[LinearMap]:
    # with ``square`` f builds an m x m matrix Q, also checked before A is drawn
    if aconf is None:
        return None
    if isinstance(aconf, dict):
        _reject_unknown(aconf, {"random"}, "problem.a")
        shape = aconf.get("random")
        if (not isinstance(shape, (list, tuple)) or len(shape) != 2
                or not all(type(v) is int and v > 0 for v in shape)
                or shape[0] * max(shape[1], shape[0] if square else 0) > _MAX_ENTRIES):
            raise ConfigError("problem.a.random must be [m, n], positive integers with m * n "
                              f"(and m * m for a quadratic f) at most {_MAX_ENTRIES}")
        if shape[1] != n:
            raise ConfigError(f"problem.a.random second entry must equal n = {n}")
        return random_linear_map(shape[0], shape[1], np.random.default_rng(seed))
    return LinearMap.from_matrix(_array(aconf, "problem.a", 2))


def _scaled(value, where: str, ndim: int, unit):
    """A list ``ndim`` deep as a float array, a number times ``unit()``, or None."""
    if isinstance(value, (list, tuple)):
        return _array(value, where, ndim)
    return None if value is None else _floats(_number(value, where), where) * unit()


def build_problem(pconf: dict, seed: int) -> ProblemSpec:
    """Construct the spec named by a problem descriptor dictionary."""
    if not isinstance(pconf, dict) or not isinstance(pconf.get("name"), str):
        raise ConfigError("config.problem must be an object with a 'name'")
    name = pconf["name"]
    if name not in _PROBLEM_KEYS:
        raise ConfigError(f"unknown problem {name!r} (options: {sorted(_PROBLEM_KEYS)})")
    _reject_unknown(pconf, _PROBLEM_KEYS[name], f"problem {name!r}")
    n = _number(pconf.get("n", 2), "problem.n", integer=True)
    if not 1 <= n <= _MAX_ENTRIES:
        raise ConfigError(f"problem.n must be an integer in [1, {_MAX_ENTRIES}]")
    square = name != "holder-power-simplex" and pconf.get("f") != "lse"  # f builds Q
    try:
        linmap = _build_map(pconf.get("a"), n, seed, square)
        m = linmap.dim_out if linmap is not None else n
        if square and m * m > _MAX_ENTRIES:
            raise ConfigError(f"problem {name!r} would build an m x m matrix Q, m = {m}: too large")
        q = _scaled(pconf.get("q"), "problem.q", 2, lambda: np.eye(m))
        b = _scaled(pconf.get("b"), "problem.b", 1, lambda: np.ones(m))
        if b is not None and b.shape != (m,):
            raise ConfigError(f"problem.b must have length {m}")
        if name == "quadratic-simplex":
            return make_quadratic_simplex(q, b, n, a=linmap)
        if name == "quadratic-box":
            lower, upper = (_scaled(pconf.get(k), f"problem.{k}", 1, lambda: np.ones(n))
                            for k in ("lower", "upper"))
            return make_quadratic_box(q, b, lower=lower, upper=upper, n=n, a=linmap)
        if name == "quadratic-l1":
            radius = float(_floats(_number(pconf.get("radius", 1.0), "problem.radius"),
                                   "problem.radius"))
            return make_quadratic_l1_ball(q, b, radius=radius, n=n, a=linmap)
        if name == "entropy-lse":
            f_kind = pconf.get("f", "quadratic")
            unread = [f"problem.{k}" for k in ("q", "b") if pconf.get(k) is not None]
            if f_kind == "lse" and unread:
                raise ConfigError(f"entropy-lse with f = 'lse' takes no {' or '.join(unread)}")
            return make_entropy_lse(n, a=linmap, f_kind=f_kind, Q=q, b=b)
        return make_holder_power_simplex(_number(pconf.get("p", 1.5), "problem.p"), n, a=linmap)
    except (FenchelDuoError, MemoryError) as exc:  # a MemoryError: too large to build
        raise ConfigError(str(exc)) from exc


def build_rule(rconf):
    if rconf is None:
        return FixedHarmonic()
    if isinstance(rconf, str):
        rconf = {"name": rconf}
    if not isinstance(rconf, dict) or not isinstance(rconf.get("name"), str):
        raise ConfigError("config.rule must be a name or an object with a 'name'")
    name = rconf["name"]
    if name not in _RULE_KEYS:
        raise ConfigError(f"unknown rule {name!r} (options: {sorted(_RULE_KEYS)})")
    _reject_unknown(rconf, _RULE_KEYS[name] | {"name"}, f"rule {name!r}")
    params = {k: _number(v, f"rule.{k}") for k, v in rconf.items() if k != "name"}
    try:
        return _RULES[name](**params)
    except FenchelDuoError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    return config


_TOP_FLAGS = {"kmax": "k_max", "seed": "seed", "out": "out"}


def _with_flags(config: dict, args) -> dict:
    """The config with each given flag set on the key of the same name."""
    given = {flag: v for flag, v in vars(args).items() if v is not None}
    return {**config, **{key: given[f] for f, key in _TOP_FLAGS.items() if f in given}}


class Setup(NamedTuple):
    """The parts of one run, built from a checked config."""

    spec: ProblemSpec
    algo: str
    rule: StepRule
    k_max: int
    epsilon: Optional[float]
    mode: str
    seed: int
    x0: np.ndarray
    u0: np.ndarray
    v0: np.ndarray


def resolve(config: dict) -> Setup:
    """Check every key of a config once and build the parts of its run."""
    _reject_unknown(config, _TOP_KEYS, "config")
    if "problem" not in config:
        raise ConfigError("config needs a 'problem'")
    algo = config.get("algorithm", "gcs")
    if algo not in ("gcs", "gmd", "hybrid"):
        raise ConfigError(f"algorithm must be gcs|gmd|hybrid, got {algo!r}")
    seed = _number(config.get("seed", 0), "seed", integer=True)
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    k_max = _number(config.get("k_max", 100), "k_max", integer=True)
    if k_max < 1:
        raise ConfigError("k_max must be a positive integer")
    epsilon = config.get("epsilon")
    epsilon = None if epsilon is None else _number(epsilon, "epsilon")
    mode = config.get("mode", "plain")
    if mode not in ("plain", "sharp"):
        raise ConfigError("mode must be plain|sharp")
    if not isinstance(config.get("out", "."), str):
        raise ConfigError(f"out must be a directory name, got {config['out']!r}")
    x0, u0, v0 = (None if config.get(k) is None else _array(config[k], k, 1)
                  for k in ("x0", "u0", "v0"))
    spec = build_problem(config["problem"], seed)
    for key, point, dim in (("x0", x0, spec.dim_x), ("u0", u0, spec.dim_y), ("v0", v0, spec.dim_y)):
        if point is not None and point.shape != (dim,):
            raise ConfigError(f"{key} must have length {dim}, got {point.shape[0]}")
    rule = build_rule(config.get("rule"))
    try:  # a family with no dense matrix allocates its first length-n vectors here
        x0 = _oracle_point(spec, "h_conj_grad", np.zeros(spec.dim_x)) if x0 is None else x0
        v0 = np.zeros(spec.dim_y) if v0 is None else v0
        u0 = _oracle_point(spec, "f_grad", spec.linmap.apply(x0)) if u0 is None else u0
    except MemoryError as exc:
        raise ConfigError(f"problem.n = {spec.dim_x}: the start points do not fit in memory "
                          f"({exc})") from exc
    return Setup(spec, algo, rule, k_max, epsilon, mode, seed, x0, u0, v0)


def execute(config: dict) -> Trace:
    """Run the experiment a config describes and return its trace."""
    setup = resolve(config)
    kwargs = dict(epsilon=setup.epsilon, mode=setup.mode)
    if setup.algo == "hybrid":
        return run_hybrid(setup.spec, setup.x0, setup.u0, setup.rule, setup.k_max, **kwargs)
    run, start = (run_gcs, setup.x0) if setup.algo == "gcs" else (run_gmd, setup.v0)
    return run(setup.spec, start, setup.rule, setup.k_max, **kwargs)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % x


def write_trace_csv(trace: Trace, path: str):
    # the columns of CSV_HEADER after k, in its order
    columns = (trace.alphas, trace.primal, trace.dual, trace.gap_bound, trace.true_gap,
               trace.residual, trace.t_ms)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for k, row in enumerate(zip(*columns), 1):
            fh.write(",".join([str(k)] + [_fmt(v) for v in row]) + "\n")


def summarize(trace: Trace, config: dict) -> dict:
    done = trace.k
    return {
        "problem": config["problem"],
        "algorithm": config.get("algorithm", "gcs"),
        "rule": config.get("rule", {"name": "fixed_harmonic"}),
        "mode": trace.mode,
        "seed": config.get("seed", 0),
        "iterations": done,
        "final_primal": trace.primal[-1] if done else None,
        "final_dual": trace.dual[-1] if done else None,
        "final_gap_bound": float(trace.gap_bound[-1]) if done else None,
        "final_true_gap": trace.true_gap[-1] if done else None,
        "max_identity_residual": max(trace.residual) if done else None,
        "error": trace.error,
    }


def write_summary(summary: dict, path: str):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _writing_to(outdir: str):
    """Make ``outdir``; an OSError there or in the block, or a name the
    system takes for no path (a NUL byte), is a config error."""
    try:
        os.makedirs(outdir, exist_ok=True)
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write to out {outdir}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    config = _with_flags(load_config(args.config), args)
    trace = execute(config)
    outdir = config.get("out", ".")
    summary = summarize(trace, config)
    with _writing_to(outdir):
        write_trace_csv(trace, os.path.join(outdir, "trace.csv"))
        write_summary(summary, os.path.join(outdir, "summary.json"))
    for key in ("iterations", "final_primal", "final_dual", "final_gap_bound",
                "final_true_gap"):
        print(f"{key}: {summary[key]}")
    if trace.error:
        print(f"error: {trace.error}", file=sys.stderr)
        return 3
    return 0


_DEFAULT_VERIFY = [
    {"problem": {"name": "quadratic-simplex", "n": 2}},
    {"problem": {"name": "entropy-lse", "n": 3, "b": [0.3, -0.2, 0.1]}},
    {"problem": {"name": "quadratic-simplex", "n": 3,
                 "a": {"random": [5, 3]}, "b": [0.1, -0.3, 0.2, 0.05, -0.1]}},
]


def _verify_one(config: dict, report: list) -> bool:
    setup = resolve({**config, "algorithm": "gcs"})
    spec, rule, k_max, x0, u0 = setup.spec, setup.rule, setup.k_max, setup.x0, setup.u0
    label = spec.name if config["problem"].get("a") is None else f"{spec.name}(general-A)"
    ok = True

    def check(name: str, value: float, tol: float) -> bool:
        good = value <= tol
        report.append(f"{'PASS' if good else 'FAIL'} {label} {name}: {value:.3e} (tol {tol:g})")
        return good

    traces = {
        "gcs": run_gcs(spec, x0, rule, k_max),
        "gmd": run_gmd(spec, setup.v0, rule, k_max),
        "hybrid": run_hybrid(spec, x0, u0, rule, k_max),
    }
    residual_fns = {
        "gcs": cg_identity_residuals,
        "gmd": md_identity_residuals,
        "hybrid": hybrid_identity_residuals,
    }
    for algo, trace in traces.items():
        if trace.error:
            report.append(f"FAIL {label} {algo} aborted: {trace.error}")
            ok = False
            continue
        try:
            worst = float(np.max(residual_fns[algo](trace, spec)))
        except (DomainError, InfiniteValue, StateError) as exc:  # no value, or no step
            report.append(f"FAIL {label} {algo} replay: {exc}")
            ok = False
            continue
        ok &= check(f"{algo} identity residual", worst, 1e-8)
        lam, _ = weight_rows(trace.alphas)
        ok &= check(f"{algo} weight-sum defect", abs(float(np.sum(lam)) - 1.0), 1e-12)
        ok &= check(f"{algo} negative weight", float(max(0.0, -np.min(lam))), 0.0)
        tg = np.asarray(trace.true_gap)
        ok &= check(f"{algo} weak duality defect", float(max(0.0, -np.min(tg))), 1e-9)
        ok &= check(f"{algo} sandwich defect", float(np.max(tg - trace.gap_bound)), 1e-8)
        sharp_excess = float(np.max(np.asarray(trace.gap_sharp) - np.asarray(trace.gap_plain)))
        ok &= check(f"{algo} sharpened-vs-plain excess", max(0.0, sharp_excess), 1e-12)
    for name, run_check, starts, k in (
            ("run-equivalence deviation", check_bach_equivalence, (x0,), 50),
            ("symmetry deviation", check_hybrid_symmetry, (x0, u0), 30)):
        try:
            value = run_check(spec, *starts, FixedHarmonic(), min(k, k_max))
        except ConstructionError as exc:  # one of the compared runs aborted
            report.append(f"FAIL {label} {name}: {exc}")
            ok = False
            continue
        ok &= check(name, value, 1e-12)
    return ok


def cmd_verify(args) -> int:
    configs = [load_config(args.config)] if args.config else _DEFAULT_VERIFY
    report: list = []
    all_ok = True
    for config in configs:  # --kmax, else the config's k_max, else 150
        all_ok &= _verify_one({"k_max": 150, **_with_flags(config, args)}, report)
    print("\n".join(report))
    print(f"{'OK' if all_ok else 'FAILED'}: {sum(r.startswith('PASS') for r in report)} passed, "
          f"{sum(not r.startswith('PASS') for r in report)} failed")
    return 0 if all_ok else 1


def cmd_probe(args) -> int:
    setup = resolve(_with_flags(load_config(args.config), args))
    gamma = args.gamma if args.gamma is not None else 2.0
    try:
        est = probe_curvature(setup.spec, gamma, n_samples=200, seed=setup.seed)
    except RangeError as exc:
        raise ConfigError(f"--gamma: {exc}") from exc
    print(f"problem: {setup.spec.name}")
    print(f"gamma: {est.gamma}")
    print(f"c_hat (sampled lower estimate): {_fmt(est.c_hat)}")
    print(f"samples: {est.samples}  skipped: {est.skipped}")
    if est.witness is not None:
        print(f"witness alpha: {_fmt(est.witness['alpha'])}")
    return 0


def _read_trace_gaps(path: str) -> np.ndarray:
    col = CSV_HEADER.split(",").index("gap_bound")
    try:
        with open(path) as fh:
            if fh.readline().strip() != CSV_HEADER:
                raise ConfigError(f"{path} is not a trace file (header mismatch)")
            rows = [(i, line.split(",")) for i, line in enumerate(fh, start=2) if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    gaps = []
    for i, fields in rows:
        try:
            gaps.append(float(fields[col]))
        except (IndexError, ValueError):
            raise ConfigError(f"{path} line {i}: gap_bound is not a number") from None
    return np.array(gaps)


def cmd_rate(args) -> int:
    try:
        exponent, r2 = fit_rate(_read_trace_gaps(args.trace))
    except FitError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"source: {args.trace}")
    print(f"exponent: {_fmt(exponent)}")
    print(f"r_squared: {_fmt(r2)}")
    return 0


def _problem_of(config: dict):
    """What fixes the problem a config runs: its problem object, and the
    seed when that object draws a random map."""
    problem = config.get("problem")
    random_map = isinstance(problem, dict) and isinstance(problem.get("a"), dict)
    return problem, config.get("seed", 0) if random_map else None


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least two configs")
    configs = [_with_flags(load_config(p), args) for p in args.configs]
    labels = [os.path.splitext(os.path.basename(p))[0] for p in args.configs]
    for i, label in enumerate(labels):  # a label names a column of the table and of compare.csv
        if label in labels[:i]:
            raise ConfigError(f"configs {args.configs[labels.index(label)]} and "
                              f"{args.configs[i]} get the same label {label!r}")
    for path, config in zip(args.configs[1:], configs[1:]):
        if _problem_of(config) != _problem_of(configs[0]):
            raise ConfigError(f"config {path} runs a different problem than {args.configs[0]}")
    traces = [execute(config) for config in configs]
    for path, trace in zip(args.configs, traces):
        if trace.error:
            print(f"error in {path}: {trace.error}", file=sys.stderr)
            return 3

    kmax = min(trace.k for trace in traces)
    gaps = [t.gap_bound for t in traces]
    marks = [k for k in (1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000) if k <= kmax]
    width = max(12, max(len(lab) for lab in labels) + 2)
    print("k".rjust(6) + "".join(lab.rjust(width) for lab in labels))
    for k in marks:
        print(f"{k:6d}" + "".join(f"{g[k - 1]:{width}.4e}" for g in gaps))
    print("rate exponents (log-log slope of the certified gap):")
    for lab, trace in zip(labels, traces):
        try:
            exponent, r2 = fit_rate(trace)
        except FitError:
            exponent = r2 = float("nan")
        print(f"  {lab}: {exponent:.4f} (r^2 {r2:.4f})")
    if args.out:
        path = os.path.join(args.out, "compare.csv")
        with _writing_to(args.out), open(path, "w") as fh:
            fh.write("k," + ",".join(labels) + "\n")
            for k in range(1, kmax + 1):
                fh.write(str(k) + "," + ",".join(_fmt(g[k - 1]) for g in gaps) + "\n")
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_FLAGS = {
    "--config": {"help": "JSON experiment config"},
    "--out": {"help": "output directory"},
    "--kmax": {"type": int, "help": "iteration budget"},
    "--gamma": {"type": float, "help": "curvature exponent (default 2)"},
    "--seed": {"type": int, "help": "seed for problem-library sampling"},
}
# subcommand -> (function, help, the flags it reads); probe's --gamma is the
# probed exponent, not a config key
_SUBCOMMANDS = {
    "run": (cmd_run, "run one experiment, write trace.csv + summary.json",
            ("--config", "--out", "--kmax", "--seed")),
    "verify": (cmd_verify, "run the identity/equivalence suite",
               ("--config", "--kmax", "--seed")),
    "probe": (cmd_probe, "estimate a relative curvature constant",
              ("--config", "--gamma", "--seed")),
    "rate": (cmd_rate, "fit the gap decay exponent of a trace file", ()),
    "compare": (cmd_compare, "aligned gap table for several configs",
                ("--out", "--kmax", "--seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fenchel-duo",
        description="Projection-free solvers with certified duality gaps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "rate":
            p.add_argument("trace", help="a trace.csv that run wrote")
        if name == "compare":
            p.add_argument("configs", nargs="+", help="two or more config files")
        for flag in flags:
            p.add_argument(flag, required=flag == "--config" and name in ("run", "probe"),
                           **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point stdout at devnull so the
        # final flush at exit cannot raise again; 141 = 128 + SIGPIPE, as a shell reports
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FenchelDuoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
