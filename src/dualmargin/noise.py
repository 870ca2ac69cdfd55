"""Structured label-noise transition matrices and seeded label corruption.

A transition matrix T is row-stochastic: ``T[i, j]`` is the probability
that an instance whose true class is ``i`` receives label ``j``.  Four
topologies are provided:

* ``column``: every class funnels a fraction ``eta`` of its labels into
  two fixed sink classes (split equally); the sinks themselves exchange
  labels at rate ``eta - 0.2`` (so the canonical ``eta = 0.6`` gives the
  0.6/0.4 sink rows).  For ``eta < 0.2`` the sink rows stay diagonal.
* ``asymmetric_pairs``: independent one-directional flips src -> dst,
  each at rate ``eta``; untouched classes keep their labels.
* ``cyclic_superclass``: classes are consecutive groups of ``group_size``;
  each class sends ``eta`` of its labels to the next class within its
  group (wrapping inside the group).
* ``block_superclass``: each class spreads ``eta`` uniformly over the
  other ``group_size - 1`` members of its group.

Corruption resamples each label independently from its T row by inverse
CDF under a seeded PCG64 stream, so runs are reproducible across
platforms.  A draw past a row's total (rows may sum to 1 - 1e-12) takes
the row's last nonzero class.  Features are never touched.
:func:`check_layout` is the one place for the layout rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSpec",
    "TransitionMatrix",
    "TOPOLOGIES",
    "LAYOUT_TOPOLOGIES",
    "default_column_sinks",
    "check_layout",
    "build_transition",
    "corrupt_labels",
]

TOPOLOGIES = ("column", "asymmetric_pairs", "cyclic_superclass", "block_superclass")

# the topologies that read each optional layout key of a NoiseSpec
LAYOUT_TOPOLOGIES = {
    "sinks": ("column",),
    "pairs": ("asymmetric_pairs",),
    "group_size": ("cyclic_superclass", "block_superclass"),
}

ROW_SUM_TOL = 1e-12


@dataclass
class NoiseSpec:
    """Which corruption topology to build, at what rate, with what layout.

    ``sinks`` applies to ``column``; ``pairs`` (list of (src, dst)) to
    ``asymmetric_pairs``; ``group_size`` to the superclass topologies; a key
    set for another topology is rejected.  Leaving ``sinks`` unset picks
    :func:`default_column_sinks`.
    """

    topology: str
    eta: float
    sinks: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] | None = None
    group_size: int | None = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        self.eta = float(self.eta)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        for key, topologies in LAYOUT_TOPOLOGIES.items():
            if getattr(self, key) is not None and self.topology not in topologies:
                raise ValueError(f"{key} does not apply to topology '{self.topology}'")


@dataclass
class TransitionMatrix:
    """Row-stochastic corruption probabilities."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {probs.shape}")
        if np.any(probs < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        sums = probs.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"row {row} sums to {sums[row]!r}, not 1")
        self.probs = probs

    @property
    def class_count(self) -> int:
        return int(self.probs.shape[0])


def default_column_sinks(class_count: int) -> tuple[int, int]:
    """Sink pair for column noise: (3, 5) for ten classes, else the middle pair."""
    if class_count < 2:
        raise ValueError("column noise needs at least 2 classes")
    if class_count == 10:
        return (3, 5)
    mid = class_count // 2
    return (mid - 1, mid)


def check_layout(spec: NoiseSpec, class_count: int) -> None:
    """Raise ``ValueError`` unless ``spec``'s layout fits ``class_count`` classes; allocates nothing.

    Each message starts with the :class:`NoiseSpec` field it is about.
    """
    C, sinks = class_count, spec.sinks
    if spec.topology == "column" and sinks is not None:
        if len(sinks) != 2 or sinks[0] == sinks[1] or min(sinks) < 0 or max(sinks) >= C:
            raise ValueError(f"sinks must be two distinct classes in [0, {C}), got {sinks!r}")
    elif spec.topology == "asymmetric_pairs":
        if not spec.pairs:
            raise ValueError(f"pairs must be a nonempty list of (src, dst) for asymmetric_pairs, got {spec.pairs!r}")
        for pair in spec.pairs:
            if len(pair) != 2 or pair[0] == pair[1] or min(pair) < 0 or max(pair) >= C:
                raise ValueError(f"pairs must map a class in [0, {C}) to another, got {spec.pairs!r}")
        if len({src for src, _ in spec.pairs}) < len(spec.pairs):
            raise ValueError(f"pairs must not repeat a source, got {spec.pairs!r}")
    elif spec.topology in LAYOUT_TOPOLOGIES["group_size"]:
        g = spec.group_size
        if g is None or g < 2 or C % g:
            raise ValueError(f"group_size must be set, >= 2 and divide class_count {C}, got {g!r}")


def build_transition(spec: NoiseSpec, class_count: int) -> TransitionMatrix:
    """Construct the exact transition matrix for ``spec``."""
    C = int(class_count)
    if C < 1:
        raise ValueError("class_count must be >= 1")
    check_layout(spec, C)
    eta = spec.eta
    T = np.eye(C, dtype=np.float64)

    if spec.topology == "column":
        s1, s2 = map(int, spec.sinks if spec.sinks is not None else default_column_sinks(C))
        rest = np.delete(np.arange(C), [s1, s2])
        T[rest, rest] = 1.0 - eta
        T[rest, s1] = eta / 2.0
        T[rest, s2] = eta / 2.0
        sink_rate = max(0.0, eta - 0.2)
        T[[s1, s2], [s1, s2]] = 1.0 - sink_rate
        T[[s1, s2], [s2, s1]] = sink_rate

    elif spec.topology == "asymmetric_pairs":
        src, dst = np.array(spec.pairs, dtype=int).T
        T[src, src] = 1.0 - eta
        T[src, dst] = eta

    else:
        g = int(spec.group_size)
        c = np.arange(C)
        base = c // g * g
        T[c, c] = 1.0 - eta
        # cyclic's entry is eta added to the identity's 0.0: an eta of -0.0 gives 0.0
        cyclic = spec.topology == "cyclic_superclass"
        for k in range(1, 2 if cyclic else g):
            T[c, base + (c - base + k) % g] = 0.0 + eta if cyclic else eta / (g - 1)

    return TransitionMatrix(probs=T)


def corrupt_labels(clean, transition: TransitionMatrix, seed: int) -> np.ndarray:
    """Resample each label from its transition row; deterministic per seed.

    Labels only: callers keep their feature arrays untouched.
    """
    clean = np.asarray(clean, dtype=int)
    if clean.ndim != 1:
        raise ValueError("labels must be 1-D")
    C = transition.class_count
    if clean.size and (clean.min() < 0 or clean.max() >= C):
        raise ValueError(f"labels out of range [0, {C})")
    rng = np.random.default_rng(seed)
    u = rng.random(clean.size)
    out = np.empty_like(clean)
    # one CDF row and one searchsorted per clean class, over that class's
    # positions; a row's cumsum has the bits of that row of the (C, C) one
    order = np.argsort(clean, kind="stable")
    bounds = np.searchsorted(clean[order], np.arange(C + 1))
    for c in np.flatnonzero(np.diff(bounds)):
        group = order[bounds[c] : bounds[c + 1]]
        out[group] = np.searchsorted(np.cumsum(transition.probs[c]), u[group], side="right")
    # a draw past a row's total takes the row's last nonzero class
    for i in np.flatnonzero(out == C):
        out[i] = np.flatnonzero(transition.probs[clean[i]])[-1]
    return out
