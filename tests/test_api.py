"""The public surface: every exported name exists."""

import importlib

import pytest

MODULES = [
    "dualmargin",
    "dualmargin.loss",
    "dualmargin.plausibility",
    "dualmargin.noise",
    "dualmargin.datasets",
    "dualmargin.training",
    "dualmargin.experiments",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves_and_star_imports(name):
    module = importlib.import_module(name)
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)  # fails on a name __all__ lists but the module lacks
    assert set(module.__all__) <= set(namespace)
