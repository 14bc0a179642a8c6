"""The package namespace: every module's public names resolve on
``fenchelduo``, and names removed with the single iteration kernel, the
hand-mirrored dual side and the helpers folded into their one caller stay
gone."""

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
           "HolderPowerF", "make_rule")


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_exports_resolve_on_package(module):
    for name in module.__all__:
        assert getattr(fd, name) is getattr(module, name), name


def test_public_name_count():
    names = {name for module in MODULES for name in module.__all__}
    assert len(names) == 43


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(fd, name)
    assert all(not hasattr(module, name) for module in MODULES)
