"""Seeded desk-scale dataset generators for the experiment suite.

Three generators cover the experiment families: a cyclic 2-D ring whose
classes are angular sectors (toy2d), an isotropic Gaussian mixture with
well-separated means (noise-recovery, sweep), and synthetic multiple-
instance bags with the negative-bag purity guarantee (mil-toy).  All
generators are pure functions of their arguments; the same seed always
reproduces the same arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledDataset",
    "BagDataset",
    "make_ring",
    "make_gaussian_mixture",
    "make_mil_bags",
]

# the generators' defaults, which the experiment families' default configs
# read too; chosen so that label ambiguity is present but structured (ring)
# and so that a clean linear probe sits near the mid-90s in accuracy
# (mixture), leaving room for noise-robustness differences to show.
RING_DEFAULTS = {"class_count": 8, "n_per_class": 200, "angular_noise_std": 0.15}
MIXTURE_DEFAULTS = {"dim": 16, "n_per_class": 500, "class_separation": 4.0}
MIL_DEFAULTS = {"dim": 2, "separation": 3.0}


@dataclass
class LabeledDataset:
    """Feature matrix plus clean (and optionally corrupted) labels."""

    features: np.ndarray
    clean_labels: np.ndarray
    class_count: int
    noisy_labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.clean_labels = np.asarray(self.clean_labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be (n, d)")
        n = self.features.shape[0]
        if self.clean_labels.shape != (n,):
            raise ValueError("clean_labels length must match features")
        if self.noisy_labels is not None:
            self.noisy_labels = np.asarray(self.noisy_labels, dtype=int)
            if self.noisy_labels.shape != (n,):
                raise ValueError("noisy_labels length must match features")
        for labels in (self.clean_labels, self.noisy_labels):
            if labels is not None and labels.size:
                if labels.min() < 0 or labels.max() >= self.class_count:
                    raise ValueError(f"labels out of range [0, {self.class_count})")

    def training_labels(self) -> np.ndarray:
        """Noisy labels when present, else the clean ones."""
        return self.noisy_labels if self.noisy_labels is not None else self.clean_labels


@dataclass
class BagDataset:
    """MIL bags: per-bag instance features, bag labels, hidden instance truth.

    ``instance_truth`` exists for evaluation only and must never feed
    training.  Invariant: a negative bag contains only truly-negative
    instances.
    """

    bags: list[np.ndarray]
    bag_labels: np.ndarray
    instance_truth: list[np.ndarray]

    def __post_init__(self) -> None:
        self.bag_labels = np.asarray(self.bag_labels, dtype=int)
        if len(self.bags) != self.bag_labels.size or len(self.bags) != len(self.instance_truth):
            raise ValueError("bags, bag_labels and instance_truth must have equal length")
        for label, truth in zip(self.bag_labels, self.instance_truth):
            if label == 0 and np.any(np.asarray(truth) != 0):
                raise ValueError("negative bag contains a positive instance")

    def flatten(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All bags' instances in bag order, each one's bag label, and its true label."""
        X = np.concatenate(self.bags, axis=0)
        inherited = np.concatenate(
            [np.full(len(b), lab, dtype=int) for b, lab in zip(self.bags, self.bag_labels)]
        )
        truth = np.concatenate([np.asarray(t, dtype=int) for t in self.instance_truth])
        return X, inherited, truth


def make_ring(
    class_count: int = RING_DEFAULTS["class_count"],
    n_per_class: int = RING_DEFAULTS["n_per_class"],
    angular_noise_std: float = RING_DEFAULTS["angular_noise_std"],
    seed: int = 0,
) -> LabeledDataset:
    """Unit-radius ring whose classes are angular sectors.

    The label is the sector of the *un-jittered* angle; the observed point
    is placed at the jittered angle, so with nonzero ``angular_noise_std``
    a fraction of points sits in a neighboring sector while keeping its
    original label -- structured, adjacency-limited label ambiguity.  A
    jitter that makes any angle non-finite raises ValueError before any
    ``cos`` or ``sin``.
    """
    if class_count < 3:
        raise ValueError(f"class_count must be >= 3 for the ring, got {class_count}")
    rng = np.random.default_rng(seed)
    width = 2.0 * np.pi / class_count
    labels = np.repeat(np.arange(class_count), n_per_class)
    base = labels * width + rng.random(labels.size) * width
    theta = base + rng.normal(0.0, angular_noise_std, labels.size) if angular_noise_std > 0 else base
    if not np.isfinite(theta).all():
        raise ValueError(f"angular_noise_std is too large for finite angles, got {angular_noise_std}")
    features = np.column_stack([np.cos(theta), np.sin(theta)])
    return LabeledDataset(features=features, clean_labels=labels, class_count=class_count)


# bytes of one block of the (rows, C, dim) difference tensor
_BLOCK_BYTES = 1 << 20


def _min_pairwise_distance(means: np.ndarray) -> np.float64:
    """Smallest distance between two distinct rows: a Gram screen, then exact blocks.

    A block is the rows of at most ``_BLOCK_BYTES`` of the (rows, C, dim)
    difference tensor of ``means`` as given (another memory order reduces in
    another order), reduced as ``np.linalg.norm`` does.  Only blocks whose
    screened minimum of ``|a|² + |b|² - 2 a·b`` (a BLAS product per Gram block
    of half ``_BLOCK_BYTES``) is within ``16 (dim + 4) eps M`` of the
    smallest are computed, M the largest ``|row|²``, as both forms lie within
    ``3 (dim + 2) eps M`` of the true value; all are when 4 M, which bounds
    every squared distance, is not finite.  The rows are unit-norm at the one
    call site, where the margin is 7e-14 at dim 16 and keeps only near-ties.
    """
    count, dim = means.shape
    rows = max(1, _BLOCK_BYTES // (count * dim * means.itemsize))
    starts = np.arange(0, count - 1, rows)
    sq_norms = np.einsum("ij,ij->i", means, means)
    margin = 4 * (dim + 4) * np.finfo(np.float64).eps * (4 * sq_norms.max())
    if starts.size > 1 and np.isfinite(margin):
        screen_rows = max(1, _BLOCK_BYTES // (2 * count * means.itemsize))
        left = np.column_stack([means, sq_norms, np.ones(count)])
        right = np.column_stack([-2 * means, np.ones(count), sq_norms])
        row_min = np.full(count, np.inf)  # the last row has no later row
        for lo in range(0, count - 1, screen_rows):
            gram = left[lo : lo + screen_rows] @ right[lo + 1 :].T
            gram[np.tril_indices(gram.shape[0], -1)] = np.inf
            row_min[lo : lo + screen_rows] = gram.min(axis=1)
        starts = starts[np.minimum.reduceat(row_min, starts) <= row_min.min() + margin]
    best = np.inf
    for lo in starts:
        # each pair once: block row i (row lo + i) against rows after lo + i;
        # (a - b)**2 and (b - a)**2 are the same bits
        block = means[lo : lo + rows, None, :] - means[None, lo + 1 :, :]
        block *= block
        sq = np.add.reduce(block, axis=2)
        sq[np.tril_indices(sq.shape[0], -1, sq.shape[1])] = np.inf
        best = min(best, sq.min())
    return np.sqrt(best)


@functools.lru_cache(maxsize=4)
def _mixture_means(class_count: int, dim: int, class_separation: float, means_seed: int) -> np.ndarray:
    """The class means of :func:`make_gaussian_mixture`, read-only.

    Cached, since the train and test splits of one mixture share them.
    """
    means_rng = np.random.default_rng(means_seed)
    if class_count <= dim:
        raw = means_rng.normal(size=(dim, class_count))
        directions, _ = np.linalg.qr(raw)
        means = directions.T
    else:
        means = means_rng.normal(size=(class_count, dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
    if class_count > 1 and class_separation > 0:
        with np.errstate(over="ignore", divide="ignore"):  # a scale that is not finite is rejected below
            scale = class_separation / _min_pairwise_distance(means)
        if not np.isfinite(scale):
            raise ValueError(f"class_separation is too large for finite class means, got {class_separation}")
        means = means * scale
    elif class_separation == 0:
        means = np.zeros_like(means)
    means.setflags(write=False)
    return means


def make_gaussian_mixture(
    class_count: int,
    dim: int = MIXTURE_DEFAULTS["dim"],
    n_per_class: int = MIXTURE_DEFAULTS["n_per_class"],
    class_separation: float = MIXTURE_DEFAULTS["class_separation"],
    seed: int = 0,
    means_seed: int | None = None,
) -> LabeledDataset:
    """Isotropic unit-variance Gaussian blobs at well-separated means.

    Means start as random orthonormal-ish directions (QR when the class
    count fits the dimension, normalized Gaussian draws otherwise) and are
    rescaled so the minimum pairwise distance is exactly
    ``class_separation``.  The means derive from ``means_seed`` (defaults
    to ``seed``); pass the same ``means_seed`` with different ``seed``
    values to draw train/test splits of one fixed mixture.

    The minimum distance is screened on the unit-norm directions, where the
    screen's rounding margin is tiny, and computed in only the 1 MB row blocks
    it keeps, so the arrays are byte-identical to those of the one-shot form,
    ``np.linalg.norm(means[:, None] - means[None], axis=2)`` minimised off the
    diagonal, which holds a (C, C, dim) difference tensor.
    """
    if class_count < 1:
        raise ValueError(f"class_count must be >= 1, got {class_count}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim == 1 and class_count > 1:
        # on a line every unit direction is +1 or -1, so two class means can coincide
        raise ValueError(f"dim must be >= 2 for more than one class, got {dim}")
    means = _mixture_means(class_count, dim, class_separation, seed if means_seed is None else means_seed)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(class_count), n_per_class)
    features = means[labels] + rng.normal(size=(labels.size, dim))
    return LabeledDataset(features=features, clean_labels=labels, class_count=class_count)


def make_mil_bags(
    n_bags: int,
    bag_size: int,
    positive_instance_rate: float,
    dim: int = MIL_DEFAULTS["dim"],
    seed: int = 0,
    separation: float = MIL_DEFAULTS["separation"],
) -> BagDataset:
    """Synthetic MIL bags from two separated Gaussian instance populations.

    Half the bags are positive.  Instances of a positive bag are truly
    positive independently with ``positive_instance_rate`` (at least one
    forced per bag); negative bags are purely negative.  Bag labels use
    0 = negative, 1 = positive.
    """
    if not 0.0 < positive_instance_rate <= 1.0:
        raise ValueError(f"positive_instance_rate must be in (0, 1], got {positive_instance_rate}")
    if n_bags < 2:
        raise ValueError(f"n_bags must be >= 2, got {n_bags}")
    if bag_size < 1:
        raise ValueError(f"bag_size must be >= 1, got {bag_size}")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    mu_neg = -0.5 * separation * direction
    mu_pos = 0.5 * separation * direction

    n_pos_bags = n_bags // 2
    bag_labels = np.array([1] * n_pos_bags + [0] * (n_bags - n_pos_bags), dtype=int)
    bags: list[np.ndarray] = []
    truth: list[np.ndarray] = []
    for label in bag_labels:
        if label == 1:
            inst = (rng.random(bag_size) < positive_instance_rate).astype(int)
            if not inst.any():
                inst[0] = 1
        else:
            inst = np.zeros(bag_size, dtype=int)
        centers = np.where(inst[:, None] == 1, mu_pos, mu_neg)
        bags.append(centers + rng.normal(size=(bag_size, dim)))
        truth.append(inst)
    return BagDataset(bags=bags, bag_labels=bag_labels, instance_truth=truth)
