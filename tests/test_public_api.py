"""The package namespace: every module's public names resolve on
``fenchelduo``, and names removed with the single iteration kernel, the
hand-mirrored dual side, the helpers folded into their one caller and the
adaptive-exponent rule stay gone; the settable surface of the step rules and
the drivers stays pinned, and README lists exactly the rules there are; a
trace's fields and the iterate histories each driver fills stay pinned; no
message spells out an oracle's name; and no oracle is called outside the
checked layer."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import fenchelduo as fd
from fenchelduo import (certificates, diagnostics, duality, engine, oracles, problems,
                        steps)

MODULES = (oracles, problems, certificates, steps, engine, duality, diagnostics)
REMOVED = ("GapState", "gap_update", "WeightState", "update_weights", "linesearch_cg",
           "linesearch_md", "linesearch_hyb", "LineSearchError", "cg_identity_residual",
           "md_identity_residual", "hybrid_identity_residual", "bregman_hconj",
           "step_divergence_dual", "kl_divergence", "duality_gap", "dual_pair_step",
           "CertificateAggregate", "step_fixed_harmonic", "approx_gamma_select",
           "minimize_step_surrogate", "log_sum_exp", "neg_entropy", "QuadraticF",
           "HolderPowerF", "make_rule", "ApproxGamma")


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_exports_resolve_on_package(module):
    for name in module.__all__:
        assert getattr(fd, name) is getattr(module, name), name


def test_public_name_count():
    names = {name for module in MODULES for name in module.__all__}
    assert len(names) == 42


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(fd, name)
    assert all(not hasattr(module, name) for module in MODULES)


def test_settable_surface_is_pinned():
    """the one rule field, the drivers' keywords, and no environment reads"""
    fields = {name: [f.name for f in dataclasses.fields(cls)]
              for name, cls in steps._RULES.items()}
    assert fields == {"fixed_harmonic": [], "open_loop": ["gamma"], "exact_ls": []}
    keywords = {fn.__name__: [p.name for p in inspect.signature(fn).parameters.values()
                              if p.kind is inspect.Parameter.KEYWORD_ONLY]
                for fn in (fd.run_gcs, fd.run_gmd, fd.run_hybrid)}
    assert keywords == {"run_gcs": ["epsilon", "mode", "history"],
                        "run_gmd": ["epsilon", "mode", "history"],
                        "run_hybrid": ["epsilon", "mode", "history"]}
    sources = sorted(Path(fd.__file__).parent.glob("*.py"))
    assert sources and not [p.name for p in sources if "environ" in p.read_text()]


def test_trace_fields_are_pinned():
    """true_gap is read off primal and dual, as gap_bound off the bounds: no field"""
    assert [f.name for f in dataclasses.fields(fd.Trace)] == [
        "algo", "mode", "alphas", "primal", "dual", "gap_plain", "gap_sharp",
        "residual", "t_ms", "xs", "us", "vs", "certificate", "error"]
    trace = fd.Trace(algo="gcs", primal=[3.0, 0.5], dual=[1.0, -0.25])
    assert trace.true_gap == [2.0, 0.75] and isinstance(trace.true_gap, list)
    with pytest.raises(AttributeError):
        trace.true_gap = []


@pytest.mark.parametrize("algo, filled", [("gcs", ("xs",)), ("gmd", ("vs",)),
                                          ("hybrid", ("xs", "us"))])
def test_each_driver_fills_its_iterate_histories(algo, filled):
    """K + 1 iterates in each history the driver fills, none in the others, and
    a certificate that shares no memory with them: editing them leaves it as it was"""
    spec = fd.make_quadratic_simplex(n=3, b=np.array([0.3, -0.2, 0.1]))
    x0 = np.eye(3)[0]
    trace = {"gcs": lambda: fd.run_gcs(spec, x0, fd.FixedHarmonic(), 7),
             "gmd": lambda: fd.run_gmd(spec, np.zeros(3), fd.FixedHarmonic(), 7),
             "hybrid": lambda: fd.run_hybrid(spec, x0, spec.f_grad(x0), fd.FixedHarmonic(), 7),
             }[algo]()
    assert trace.error is None
    assert {name: len(getattr(trace, name)) for name in ("xs", "us", "vs")} == {
        name: 8 if name in filled else 0 for name in ("xs", "us", "vs")}
    certificate = trace.certificate.copy()
    for name in filled:
        for point in getattr(trace, name):
            point += 1.0
    np.testing.assert_array_equal(trace.certificate, certificate)


def test_readme_lists_each_rule_and_its_keys():
    """README's "Rules and the keys each takes" sentence names exactly the
    rules of ``steps._RULES``, each with its dataclass fields"""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split())
    sentence = re.search(r"Rules and the keys each takes:(.*?)\. ", text).group(1)
    listed = {name: re.findall(r"`(\w+)`", keys)
              for name, keys in re.findall(r"`(\w+)` \(([^)]*)\)", sentence)}
    assert listed == {name: [f.name for f in dataclasses.fields(cls)]
                      for name, cls in steps._RULES.items()}


def test_no_message_spells_out_an_oracle_name():
    """an oracle error reads the name off ``oracles._oracle_name``, so that on
    a spec built by ``dualize`` it names the oracle of the user's spec"""
    literal = re.compile(r"oracle (f_val|f_grad|f_conj_val|h_val|h_conj_val|h_conj_grad)\b")
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(fd.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and literal.search(node.value)]
    assert found == []


def test_every_oracle_call_goes_through_the_checked_layer():
    """the package calls a spec's oracle only as ``oracles._oracle_value`` or
    ``_oracle_point`` do, by role name; the one exception is ``dualize``'s
    wiring, whose oracles the checked layer calls in turn"""
    names = {"f_val", "f_grad", "f_conj_val", "h_val", "h_conj_val", "h_conj_grad", "breg_f",
             "breg_hconj"}
    found = []
    for path in sorted(Path(fd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        wiring = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "dualize"
                  for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in names and id(node) not in wiring]
    assert found == []
