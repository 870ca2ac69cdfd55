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
platforms.  Features are never touched.
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


def build_transition(spec: NoiseSpec, class_count: int) -> TransitionMatrix:
    """Construct the exact transition matrix for ``spec``."""
    C = int(class_count)
    if C < 1:
        raise ValueError("class_count must be >= 1")
    eta = spec.eta
    T = np.eye(C, dtype=np.float64)

    if spec.topology == "column":
        s1, s2 = spec.sinks if spec.sinks is not None else default_column_sinks(C)
        s1, s2 = int(s1), int(s2)
        if not (0 <= s1 < C and 0 <= s2 < C) or s1 == s2:
            raise ValueError(f"sinks must be two distinct classes in [0, {C}), got ({s1}, {s2})")
        for c in range(C):
            if c in (s1, s2):
                continue
            T[c, c] = 1.0 - eta
            T[c, s1] = eta / 2.0
            T[c, s2] = eta / 2.0
        sink_rate = max(0.0, eta - 0.2)
        T[s1, s1] = 1.0 - sink_rate
        T[s1, s2] = sink_rate
        T[s2, s2] = 1.0 - sink_rate
        T[s2, s1] = sink_rate

    elif spec.topology == "asymmetric_pairs":
        if not spec.pairs:
            raise ValueError("asymmetric_pairs requires a nonempty pairs list")
        seen_sources: set[int] = set()
        for src, dst in spec.pairs:
            src, dst = int(src), int(dst)
            if not (0 <= src < C and 0 <= dst < C):
                raise ValueError(f"pair ({src}, {dst}) out of range [0, {C})")
            if src == dst:
                raise ValueError(f"pair ({src}, {dst}) flips a class onto itself")
            if src in seen_sources:
                raise ValueError(f"class {src} appears as a source in more than one pair")
            seen_sources.add(src)
            T[src, src] = 1.0 - eta
            T[src, dst] = eta

    elif spec.topology in LAYOUT_TOPOLOGIES["group_size"]:
        g = spec.group_size
        if g is None or int(g) < 2:
            raise ValueError("superclass topologies need group_size >= 2")
        g = int(g)
        if C % g != 0:
            raise ValueError(f"class_count {C} is not divisible by group_size {g}")
        for c in range(C):
            base = (c // g) * g
            T[c, c] = 1.0 - eta
            if spec.topology == "cyclic_superclass":
                nxt = base + (c - base + 1) % g
                T[c, nxt] += eta
            else:
                for other in range(base, base + g):
                    if other != c:
                        T[c, other] = eta / (g - 1)

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
    np.minimum(out, C - 1, out=out)
    return out
