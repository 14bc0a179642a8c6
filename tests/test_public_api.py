"""The package namespace: every module's public names resolve on
``fenchelduo``, and names removed with the single iteration kernel and the
hand-mirrored dual side stay gone."""

import pytest

import fenchelduo as fd
from fenchelduo import (certificates, diagnostics, duality, engine, oracles, problems,
                        steps)

MODULES = (oracles, problems, certificates, steps, engine, duality, diagnostics)
REMOVED = ("GapState", "gap_update", "WeightState", "update_weights", "linesearch_cg",
           "linesearch_md", "linesearch_hyb", "LineSearchError", "cg_identity_residual",
           "md_identity_residual", "hybrid_identity_residual", "bregman_hconj",
           "step_divergence_dual", "kl_divergence")


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_exports_resolve_on_package(module):
    for name in module.__all__:
        assert getattr(fd, name) is getattr(module, name), name


def test_public_name_count():
    names = {name for module in MODULES for name in module.__all__}
    assert len(names) == 54


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(fd, name)
    assert all(not hasattr(module, name) for module in MODULES)
