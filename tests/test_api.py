"""The public surface: every exported name exists, and each is declared once."""

import importlib

import pytest

import dualmargin

MODULES = [
    "dualmargin",
    "dualmargin.loss",
    "dualmargin.plausibility",
    "dualmargin.noise",
    "dualmargin.datasets",
    "dualmargin.training",
    "dualmargin.experiments",
]

# the library modules the package re-exports, in its import order
LIBRARY = ["loss", "plausibility", "noise", "datasets", "training"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves_and_star_imports(name):
    module = importlib.import_module(name)
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)  # fails on a name __all__ lists but the module lacks
    assert set(module.__all__) <= set(namespace)


def test_package_exports_each_name_once():
    # a name in two modules' lists would make one star import shadow the other
    assert len(set(dualmargin.__all__)) == len(dualmargin.__all__)


def test_package_all_is_the_modules_lists_in_import_order():
    expected = ["__version__"]
    for name in LIBRARY:
        expected += importlib.import_module(f"dualmargin.{name}").__all__
    assert dualmargin.__all__ == expected


def test_package_still_exports_the_names_it_listed_by_hand():
    # the 29 names the package's own list held before it re-exported the modules' lists
    earlier = [
        "LossBreakdown",
        "LossParams",
        "batch_loss",
        "batch_loss_and_grad",
        "loss_from_logits",
        "loss_from_probs",
        "sets_from_q",
        "softmax",
        "q_from_transition",
        "q_mil",
        "q_ordinal",
        "NoiseSpec",
        "TransitionMatrix",
        "build_transition",
        "corrupt_labels",
        "BagDataset",
        "LabeledDataset",
        "make_gaussian_mixture",
        "make_mil_bags",
        "make_ring",
        "ConfusionCounts",
        "ExperimentReport",
        "ModelParams",
        "TrainConfig",
        "TrainingDivergedError",
        "diagonal_mass",
        "evaluate",
        "train",
        "train_mil_instances",
    ]
    assert len(set(earlier)) == 29
    assert not set(earlier) - set(dualmargin.__all__)
