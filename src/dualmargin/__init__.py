"""Dual-margin classification loss for structured class spaces.

The package provides stable evaluation and analytic gradients for a loss
that rewards probability mass on the exact target and on a caller-defined
plausible class set simultaneously, plus the supporting machinery:
plausibility-matrix constructors, structured label-noise simulation,
seeded synthetic datasets, a small deterministic trainer, and an
experiment CLI.  Each library module's ``__all__`` is the one list of its
public names; the package re-exports them all.
"""

__version__ = "0.1.0"

from . import loss, plausibility, noise, datasets, training
from .loss import *  # noqa: F403
from .plausibility import *  # noqa: F403
from .noise import *  # noqa: F403
from .datasets import *  # noqa: F403
from .training import *  # noqa: F403

__all__ = ["__version__", *loss.__all__, *plausibility.__all__, *noise.__all__, *datasets.__all__, *training.__all__]
