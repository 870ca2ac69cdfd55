"""Seeded desk-scale dataset generators for the experiment suite.

Four generators cover the structured-class-space settings: a cyclic 2-D
ring whose classes are angular sectors, an isotropic Gaussian mixture
with well-separated means, a 1-D ordinal line, and synthetic
multiple-instance bags with the negative-bag purity guarantee.  All
generators are pure functions of their arguments; the same seed always
reproduces the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledDataset",
    "BagDataset",
    "make_ring",
    "make_gaussian_mixture",
    "make_ordinal_line",
    "make_mil_bags",
]

# defaults used by the toy experiments; chosen so that label ambiguity is
# present but structured (ring) and so that a clean linear probe sits near
# the mid-90s in accuracy (mixture), leaving room for noise-robustness
# differences to show.
RING_DEFAULTS = {"class_count": 8, "n_per_class": 200, "angular_noise_std": 0.15}
MIXTURE_DEFAULTS = {"dim": 16, "class_separation": 4.0}


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

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def training_labels(self) -> np.ndarray:
        """Noisy labels when present, else the clean ones."""
        return self.noisy_labels if self.noisy_labels is not None else self.clean_labels

    def with_noisy_labels(self, noisy: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features,
            clean_labels=self.clean_labels,
            class_count=self.class_count,
            noisy_labels=noisy,
        )


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

    def flatten(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Instances, inherited bag labels, true instance labels, bag index."""
        X = np.concatenate(self.bags, axis=0)
        inherited = np.concatenate(
            [np.full(len(b), lab, dtype=int) for b, lab in zip(self.bags, self.bag_labels)]
        )
        truth = np.concatenate([np.asarray(t, dtype=int) for t in self.instance_truth])
        bag_index = np.concatenate(
            [np.full(len(b), i, dtype=int) for i, b in enumerate(self.bags)]
        )
        return X, inherited, truth, bag_index


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
    original label -- structured, adjacency-limited label ambiguity.
    """
    if class_count < 3:
        raise ValueError("ring needs at least 3 classes")
    rng = np.random.default_rng(seed)
    width = 2.0 * np.pi / class_count
    labels = np.repeat(np.arange(class_count), n_per_class)
    base = labels * width + rng.random(labels.size) * width
    theta = base + rng.normal(0.0, angular_noise_std, labels.size) if angular_noise_std > 0 else base
    features = np.column_stack([np.cos(theta), np.sin(theta)])
    return LabeledDataset(features=features, clean_labels=labels, class_count=class_count)


# bytes of one block of the (rows, C, dim) difference tensor
_BLOCK_BYTES = 8 << 20


def _min_pairwise_distance(means: np.ndarray) -> np.float64:
    """Smallest distance between two distinct rows, taken block by block.

    Each block's squared distances are the reduction ``np.linalg.norm``
    makes over the last axis, and ``sqrt`` is monotone and correctly
    rounded, so one ``sqrt`` of the minimum equals the minimum norm.
    """
    count, dim = means.shape
    rows = max(1, _BLOCK_BYTES // (count * dim * means.itemsize))
    best = np.inf
    for lo in range(0, count, rows):
        block = means[lo : lo + rows, None, :] - means[None, :, :]
        block *= block
        sq = np.add.reduce(block, axis=2)
        k = np.arange(sq.shape[0])
        sq[k, lo + k] = np.inf
        best = min(best, sq.min())
    return np.sqrt(best)


def make_gaussian_mixture(
    class_count: int,
    dim: int = MIXTURE_DEFAULTS["dim"],
    n_per_class: int = 500,
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

    The minimum distance is found in row blocks of about 8 MB, and the
    arrays are byte-identical to those of the one-shot form,
    ``np.linalg.norm(means[:, None] - means[None], axis=2)`` minimised
    off the diagonal, which holds a (C, C, dim) difference tensor.
    """
    if class_count < 1 or dim < 1:
        raise ValueError("class_count and dim must be >= 1")
    means_rng = np.random.default_rng(seed if means_seed is None else means_seed)
    rng = np.random.default_rng(seed)
    if class_count <= dim:
        raw = means_rng.normal(size=(dim, class_count))
        directions, _ = np.linalg.qr(raw)
        means = directions.T
    else:
        means = means_rng.normal(size=(class_count, dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
    if class_count > 1 and class_separation > 0:
        means = means * (class_separation / _min_pairwise_distance(means))
    elif class_separation == 0:
        means = np.zeros_like(means)
    labels = np.repeat(np.arange(class_count), n_per_class)
    features = means[labels] + rng.normal(size=(labels.size, dim))
    return LabeledDataset(features=features, clean_labels=labels, class_count=class_count)


def make_ordinal_line(
    class_count: int,
    n_per_class: int = 200,
    overlap_std: float = 0.5,
    seed: int = 0,
) -> LabeledDataset:
    """1-D ordinal data: class c is N(c, overlap_std^2) on the real line."""
    if class_count < 2:
        raise ValueError("ordinal line needs at least 2 classes")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(class_count), n_per_class)
    features = (labels + rng.normal(0.0, overlap_std, labels.size))[:, None]
    return LabeledDataset(features=features, clean_labels=labels, class_count=class_count)


def make_mil_bags(
    n_bags: int,
    bag_size: int,
    positive_instance_rate: float,
    dim: int = 2,
    seed: int = 0,
    separation: float = 3.0,
) -> BagDataset:
    """Synthetic MIL bags from two separated Gaussian instance populations.

    Half the bags are positive.  Instances of a positive bag are truly
    positive independently with ``positive_instance_rate`` (at least one
    forced per bag); negative bags are purely negative.  Bag labels use
    0 = negative, 1 = positive.
    """
    if not 0.0 < positive_instance_rate <= 1.0:
        raise ValueError("positive_instance_rate must be in (0, 1]")
    if n_bags < 2 or bag_size < 1:
        raise ValueError("need at least 2 bags and 1 instance per bag")
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
