"""Dual-margin classification loss for structured class spaces.

The package provides stable evaluation and analytic gradients for a loss
that rewards probability mass on the exact target and on a caller-defined
plausible class set simultaneously, plus the supporting machinery:
plausibility-matrix constructors, structured label-noise simulation,
seeded synthetic datasets, a small deterministic trainer, and an
experiment CLI.
"""

__version__ = "0.1.0"

from .loss import (
    LossBreakdown,
    LossParams,
    batch_loss,
    batch_loss_and_grad,
    loss_from_logits,
    loss_from_probs,
    sets_from_q,
    softmax,
)
from .plausibility import (
    q_from_transition,
    q_mil,
    q_ordinal,
)
from .noise import NoiseSpec, TransitionMatrix, build_transition, corrupt_labels
from .datasets import (
    BagDataset,
    LabeledDataset,
    make_gaussian_mixture,
    make_mil_bags,
    make_ring,
)
from .training import (
    ConfusionCounts,
    ExperimentReport,
    ModelParams,
    TrainConfig,
    TrainingDivergedError,
    diagonal_mass,
    evaluate,
    train,
    train_mil_instances,
)

__all__ = [
    "__version__",
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
