"""Command-line harness: run experiments, verify certificate identities,
probe curvature, fit rates, and compare configurations.

Subcommands: run, verify, probe, rate, compare.  Experiments are described by
a JSON config; unknown keys are rejected before any oracle is built.  Traces
are written as CSV with a fixed column set at 17 significant digits so files
round-trip 64-bit floats; summaries are JSON with sorted keys.  Exit codes:
2 for config errors, 3 for oracle/domain errors (a partial trace is still
written), 1 for failed verification.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

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
from .oracles import FenchelDuoError, FitError, LinearMap, ProblemSpec
from .problems import (
    make_entropy_lse,
    make_holder_power_simplex,
    make_quadratic_box,
    make_quadratic_l1_ball,
    make_quadratic_simplex,
    random_linear_map,
)
from .steps import FixedHarmonic, make_rule

log = logging.getLogger("fenchelduo")

CSV_HEADER = "k,alpha,primal,dual,gap_bound,true_gap,residual,t_ms"


class ConfigError(Exception):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"problem", "algorithm", "rule", "k_max", "epsilon", "policy",
             "mode", "seed", "x0", "u0", "v0", "out"}
_PROBLEM_KEYS = {
    "quadratic-simplex": {"name", "n", "q", "b", "a"},
    "quadratic-box": {"name", "n", "q", "b", "a", "lower", "upper"},
    "quadratic-l1": {"name", "n", "q", "b", "a", "radius"},
    "entropy-lse": {"name", "n", "f", "q", "b", "a"},
    "holder-power-simplex": {"name", "n", "p", "a"},
}
_RULE_KEYS = {
    "fixed_harmonic": set(),
    "open_loop": {"gamma"},
    "exact_ls": {"tol", "max_iters"},
    "approx_gamma": {"delta", "tol", "gamma_max"},
}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _as_matrix(value, where: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} is not a numeric matrix: {exc}") from exc
    if m.ndim != 2:
        raise ConfigError(f"{where} must be a row-major list of rows")
    return m


def _build_map(aconf, n: int, rng: np.random.Generator) -> Optional[LinearMap]:
    if aconf is None:
        return None
    if isinstance(aconf, dict):
        _reject_unknown(aconf, {"random"}, "problem.a")
        shape = aconf.get("random")
        if (not isinstance(shape, (list, tuple)) or len(shape) != 2
                or not all(isinstance(v, int) and v > 0 for v in shape)):
            raise ConfigError("problem.a.random must be [m, n] with positive integers")
        if shape[1] != n:
            raise ConfigError(f"problem.a.random second entry must equal n = {n}")
        return random_linear_map(shape[0], shape[1], rng)
    return LinearMap.from_matrix(_as_matrix(aconf, "problem.a"))


def _build_q(qconf, m: int):
    if qconf is None or qconf == "identity":
        return None
    if isinstance(qconf, (int, float)):
        return float(qconf) * np.eye(m)
    return _as_matrix(qconf, "problem.q")


def _build_b(bconf, m: int):
    if bconf is None:
        return None
    if isinstance(bconf, (int, float)):
        return float(bconf) * np.ones(m)
    b = np.asarray(bconf, dtype=float)
    if b.shape != (m,):
        raise ConfigError(f"problem.b must have length {m}")
    return b


def build_problem(pconf: dict, seed: int) -> ProblemSpec:
    """Construct the spec named by a problem descriptor dictionary."""
    if not isinstance(pconf, dict) or "name" not in pconf:
        raise ConfigError("config.problem must be an object with a 'name'")
    name = pconf["name"]
    if name not in _PROBLEM_KEYS:
        raise ConfigError(f"unknown problem {name!r} (options: {sorted(_PROBLEM_KEYS)})")
    _reject_unknown(pconf, _PROBLEM_KEYS[name], f"problem {name!r}")
    n = pconf.get("n", 2)
    if not isinstance(n, int) or n < 1:
        raise ConfigError("problem.n must be a positive integer")
    rng = np.random.default_rng(seed)
    linmap = _build_map(pconf.get("a"), n, rng)
    m = linmap.dim_out if linmap is not None else n
    try:
        if name == "quadratic-simplex":
            return make_quadratic_simplex(_build_q(pconf.get("q"), m),
                                          _build_b(pconf.get("b"), m), n, a=linmap)
        if name == "quadratic-box":
            return make_quadratic_box(_build_q(pconf.get("q"), m), _build_b(pconf.get("b"), m),
                                      lower=pconf.get("lower"), upper=pconf.get("upper"),
                                      n=n, a=linmap)
        if name == "quadratic-l1":
            return make_quadratic_l1_ball(_build_q(pconf.get("q"), m),
                                          _build_b(pconf.get("b"), m),
                                          radius=pconf.get("radius", 1.0), n=n, a=linmap)
        if name == "entropy-lse":
            return make_entropy_lse(n, a=linmap, f_kind=pconf.get("f", "quadratic"),
                                    Q=_build_q(pconf.get("q"), m), b=_build_b(pconf.get("b"), m))
        return make_holder_power_simplex(pconf.get("p", 1.5), n, a=linmap)
    except FenchelDuoError as exc:
        raise ConfigError(str(exc)) from exc


def build_rule(rconf):
    if rconf is None:
        return FixedHarmonic()
    if isinstance(rconf, str):
        rconf = {"name": rconf}
    if not isinstance(rconf, dict) or "name" not in rconf:
        raise ConfigError("config.rule must be a name or an object with a 'name'")
    name = rconf["name"]
    if name not in _RULE_KEYS:
        raise ConfigError(f"unknown rule {name!r} (options: {sorted(_RULE_KEYS)})")
    _reject_unknown(rconf, _RULE_KEYS[name] | {"name"}, f"rule {name!r}")
    params = {k: v for k, v in rconf.items() if k != "name"}
    try:
        return make_rule(name, **params)
    except FenchelDuoError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(config, _TOP_KEYS, "config")
    return config


def _apply_overrides(config: dict, args) -> dict:
    config = dict(config)
    if getattr(args, "kmax", None) is not None:
        config["k_max"] = args.kmax
    if getattr(args, "policy", None) is not None:
        config["policy"] = args.policy
    if getattr(args, "mode", None) is not None:
        config["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        config["out"] = args.out
    if getattr(args, "rule", None) is not None:
        rule = {"name": args.rule}
        if args.rule == "open_loop" and getattr(args, "gamma", None) is not None:
            rule["gamma"] = args.gamma
        if args.rule == "approx_gamma" and getattr(args, "delta", None) is not None:
            rule["delta"] = args.delta
        if args.rule in ("exact_ls", "approx_gamma") and getattr(args, "tol", None) is not None:
            rule["tol"] = args.tol
        config["rule"] = rule
    return config


def _validated(config: dict):
    """Translate a config dict into engine arguments."""
    _reject_unknown(config, _TOP_KEYS, "config")
    if "problem" not in config:
        raise ConfigError("config needs a 'problem'")
    algo = config.get("algorithm", "gcs")
    if algo not in ("gcs", "gmd", "hybrid"):
        raise ConfigError(f"algorithm must be gcs|gmd|hybrid, got {algo!r}")
    seed = config.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    k_max = config.get("k_max", 100)
    if not isinstance(k_max, int) or k_max < 1:
        raise ConfigError("k_max must be a positive integer")
    epsilon = config.get("epsilon")
    if epsilon is not None and not isinstance(epsilon, (int, float)):
        raise ConfigError("epsilon must be a number or null")
    policy = {"avg": "average", "average": "average", "best": "best"}.get(config.get("policy", "average"))
    if policy is None:
        raise ConfigError("policy must be avg|best")
    if algo == "hybrid" and policy == "best":
        raise ConfigError("policy best needs an aggregate; hybrid certifies its iterates "
                          "(use avg)")
    mode = config.get("mode", "plain")
    if mode not in ("plain", "sharp"):
        raise ConfigError("mode must be plain|sharp")
    spec = build_problem(config["problem"], seed)
    rule = build_rule(config.get("rule"))
    return spec, algo, rule, k_max, epsilon, policy, mode, seed


def _start_points(config: dict, spec: ProblemSpec):
    x0 = config.get("x0")
    u0 = config.get("u0")
    v0 = config.get("v0")
    x0 = np.asarray(x0, dtype=float) if x0 is not None else spec.h_conj_grad(np.zeros(spec.dim_x))
    v0 = np.asarray(v0, dtype=float) if v0 is not None else np.zeros(spec.dim_y)
    u0 = np.asarray(u0, dtype=float) if u0 is not None else np.asarray(
        spec.f_grad(spec.linmap.apply(x0)), dtype=float)
    return x0, u0, v0


def execute(config: dict) -> Trace:
    """Run the experiment a config describes and return its trace."""
    spec, algo, rule, k_max, epsilon, policy, mode, _ = _validated(config)
    x0, u0, v0 = _start_points(config, spec)
    kwargs = dict(epsilon=epsilon, policy=policy, mode=mode)
    if algo == "gcs":
        return run_gcs(spec, x0, rule, k_max, **kwargs)
    if algo == "gmd":
        return run_gmd(spec, v0, rule, k_max, **kwargs)
    return run_hybrid(spec, x0, u0, rule, k_max, **kwargs)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % x


def write_trace_csv(trace: Trace, path: str):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(trace.k):
            r = trace.row(i)
            fh.write(",".join([
                str(r["k"]), _fmt(r["alpha"]), _fmt(r["primal"]), _fmt(r["dual"]),
                _fmt(r["gap_bound"]), _fmt(r["true_gap"]), _fmt(r["residual"]),
                _fmt(r["t_ms"]),
            ]) + "\n")


def summarize(trace: Trace, config: dict) -> dict:
    done = trace.k
    return {
        "problem": config["problem"],
        "algorithm": config.get("algorithm", "gcs"),
        "rule": config.get("rule", {"name": "fixed_harmonic"}),
        "policy": trace.policy,
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    trace = execute(config)
    outdir = config.get("out", ".")
    os.makedirs(outdir, exist_ok=True)
    write_trace_csv(trace, os.path.join(outdir, "trace.csv"))
    summary = summarize(trace, config)
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


def _verify_one(config: dict, k_max: int, report: list) -> bool:
    spec, _, _, _, _, _, _, _ = _validated({**config, "algorithm": "gcs"})
    label = spec.name if spec.linmap.is_identity else f"{spec.name}(general-A)"
    rule = build_rule(config.get("rule"))
    x0, u0, v0 = _start_points(config, spec)
    ok = True

    def check(name: str, value: float, tol: float) -> bool:
        good = value <= tol
        report.append(f"{'PASS' if good else 'FAIL'} {label} {name}: {value:.3e} (tol {tol:g})")
        return good

    traces = {
        "gcs": run_gcs(spec, x0, rule, k_max),
        "gmd": run_gmd(spec, v0, rule, k_max),
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
        ok &= check(f"{algo} identity residual", float(np.max(residual_fns[algo](trace, spec))), 1e-8)
        lam, _ = weight_rows(trace.alphas)
        ok &= check(f"{algo} weight-sum defect", abs(float(np.sum(lam)) - 1.0), 1e-12)
        ok &= check(f"{algo} negative weight", float(max(0.0, -np.min(lam))), 0.0)
        tg = np.asarray(trace.true_gap)
        ok &= check(f"{algo} weak duality defect", float(max(0.0, -np.min(tg))), 1e-9)
        ok &= check(f"{algo} sandwich defect", float(np.max(tg - trace.gap_bound)), 1e-8)
        sharp_excess = float(np.max(np.asarray(trace.gap_sharp) - np.asarray(trace.gap_plain)))
        ok &= check(f"{algo} sharpened-vs-plain excess", max(0.0, sharp_excess), 1e-12)
    ok &= check("run-equivalence deviation",
                check_bach_equivalence(spec, x0, FixedHarmonic(), min(50, k_max)), 1e-12)
    ok &= check("symmetry deviation",
                check_hybrid_symmetry(spec, x0, u0, FixedHarmonic(), min(30, k_max)), 1e-12)
    return ok


def cmd_verify(args) -> int:
    configs = [load_config(args.config)] if args.config else [dict(c) for c in _DEFAULT_VERIFY]
    k_max = args.kmax if args.kmax is not None else 150
    report: list = []
    all_ok = True
    for config in configs:
        if args.seed is not None:
            config["seed"] = args.seed
        all_ok &= _verify_one(config, k_max, report)
    print("\n".join(report))
    print(f"{'OK' if all_ok else 'FAILED'}: {sum(r.startswith('PASS') for r in report)} passed, "
          f"{sum(not r.startswith('PASS') for r in report)} failed")
    return 0 if all_ok else 1


def cmd_probe(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    spec = build_problem(config["problem"], seed)
    gamma = args.gamma if args.gamma is not None else 2.0
    est = probe_curvature(spec, gamma, n_samples=200, seed=seed)
    print(f"problem: {spec.name}")
    print(f"gamma: {est.gamma}")
    print(f"c_hat (sampled lower estimate): {_fmt(est.c_hat)}")
    print(f"samples: {est.samples}  skipped: {est.skipped}")
    if est.witness is not None:
        print(f"witness alpha: {_fmt(est.witness['alpha'])}")
    return 0


def _read_trace_gaps(path: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"{path} is not a trace file (header mismatch)")
        col = CSV_HEADER.split(",").index("gap_bound")
        return np.array([float(line.split(",")[col]) for line in fh if line.strip()])


def cmd_rate(args) -> int:
    if (args.trace is None) == (args.config is None):
        raise ConfigError("rate needs exactly one of: a trace file or --config")
    if args.trace is not None:
        gaps = _read_trace_gaps(args.trace)
        source = args.trace
    else:
        config = _apply_overrides(load_config(args.config), args)
        trace = execute(config)
        if trace.error:
            print(f"error: {trace.error}", file=sys.stderr)
            return 3
        gaps = trace.gap_bound
        source = args.config
    try:
        exponent, r2 = fit_rate(gaps)
    except FitError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"source: {source}")
    print(f"exponent: {_fmt(exponent)}")
    print(f"r_squared: {_fmt(r2)}")
    return 0


def _problem_signature(spec: ProblemSpec):
    mat = None if spec.linmap.matrix is None else spec.linmap.matrix.tobytes()
    return (spec.name, spec.dim_x, spec.dim_y, mat)


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least two configs")
    configs = [_apply_overrides(load_config(p), args) for p in args.configs]
    labels = [os.path.splitext(os.path.basename(p))[0] for p in args.configs]
    signature = None
    traces = []
    for path, config in zip(args.configs, configs):
        spec, *_ = _validated(config)
        sig = _problem_signature(spec)
        if signature is None:
            signature = sig
        elif sig != signature:
            raise ConfigError(f"config {path} runs a different problem than {args.configs[0]}")
        traces.append(execute(config))
    for path, trace in zip(args.configs, traces):
        if trace.error:
            print(f"error in {path}: {trace.error}", file=sys.stderr)
            return 3

    kmax = min(trace.k for trace in traces)
    marks = [k for k in (1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000) if k <= kmax]
    width = max(12, max(len(lab) for lab in labels) + 2)
    print("k".rjust(6) + "".join(lab.rjust(width) for lab in labels))
    for k in marks:
        row = f"{k:6d}"
        for trace in traces:
            row += f"{trace.gap_bound[k - 1]:{width}.4e}"
        print(row)
    exponents = []
    for lab, trace in zip(labels, traces):
        try:
            exponent, r2 = fit_rate(trace)
            exponents.append((lab, exponent, r2))
        except FitError:
            exponents.append((lab, float("nan"), float("nan")))
    print("rate exponents (log-log slope of the certified gap):")
    for lab, exponent, r2 in exponents:
        print(f"  {lab}: {exponent:.4f} (r^2 {r2:.4f})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "compare.csv")
        with open(path, "w") as fh:
            fh.write("k," + ",".join(labels) + "\n")
            for k in range(1, kmax + 1):
                fh.write(str(k) + "," + ",".join(_fmt(t.gap_bound[k - 1]) for t in traces) + "\n")
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, config_required: bool = True):
    p.add_argument("--config", required=config_required, help="JSON experiment config")
    p.add_argument("--out", help="output directory")
    p.add_argument("--kmax", type=int, help="iteration budget override")
    p.add_argument("--rule", choices=sorted(_RULE_KEYS), help="step rule override")
    p.add_argument("--gamma", type=float, help="open-loop schedule exponent / probe exponent")
    p.add_argument("--delta", type=float, help="exponent slack for approx_gamma")
    p.add_argument("--tol", type=float, help="line-search tolerance")
    p.add_argument("--policy", choices=["avg", "best"], help="certificate aggregation policy")
    p.add_argument("--mode", choices=["plain", "sharp"], help="gap recursion variant")
    p.add_argument("--seed", type=int, help="seed for problem-library sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fenchel-duo",
        description="Projection-free solvers with certified duality gaps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment, write trace.csv + summary.json")
    _add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run the identity/equivalence suite")
    _add_common(p_verify, config_required=False)
    p_verify.set_defaults(fn=cmd_verify)

    p_probe = sub.add_parser("probe", help="estimate a relative curvature constant")
    _add_common(p_probe)
    p_probe.set_defaults(fn=cmd_probe)

    p_rate = sub.add_parser("rate", help="fit the gap decay exponent")
    p_rate.add_argument("trace", nargs="?", help="existing trace.csv")
    _add_common(p_rate, config_required=False)
    p_rate.set_defaults(fn=cmd_rate)

    p_cmp = sub.add_parser("compare", help="aligned gap table for several configs")
    p_cmp.add_argument("configs", nargs="+", help="two or more config files")
    for flag, kw in (("--out", {}), ("--kmax", {"type": int}), ("--rule", {"choices": sorted(_RULE_KEYS)}),
                     ("--gamma", {"type": float}), ("--delta", {"type": float}),
                     ("--tol", {"type": float}), ("--policy", {"choices": ["avg", "best"]}),
                     ("--mode", {"choices": ["plain", "sharp"]}), ("--seed", {"type": int})):
        p_cmp.add_argument(flag, **kw)
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("FENCHEL_DUO_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FenchelDuoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
