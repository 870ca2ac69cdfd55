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

A :class:`TransitionMatrix` holds only each row's nonzeros, at most three
per row, or ``group_size`` for the superclass topologies, so no dense
(C, C) array is made for it.  Corruption resamples each label
independently from its T row by inverse CDF under a seeded PCG64 stream,
so runs are reproducible across platforms.  A draw past a row's total
(rows may sum to 1 - 1e-12) takes the row's last nonzero class.  Features
are never touched.
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
    """Row-stochastic corruption probabilities, held as each row's nonzeros.

    Row ``i`` holds ``T[i, columns[k]] = probs[k]`` for ``k`` in
    ``range(starts[i], starts[i + 1])``, with its columns increasing; every
    other entry is 0.  ``starts`` has C + 1 entries, from 0 to the number
    of nonzeros, so a row of at most ``k`` nonzeros costs ``k`` entries,
    not C.
    """

    starts: np.ndarray
    columns: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.intp)
        columns = np.asarray(self.columns, dtype=np.intp)
        probs = np.asarray(self.probs, dtype=np.float64)
        if starts.ndim != 1 or starts.size < 2 or starts[0] != 0 or np.any(np.diff(starts) < 0):
            raise ValueError("starts must rise from 0, one entry per row and one more")
        if columns.shape != probs.shape or columns.shape != (starts[-1],):
            raise ValueError(f"columns and probs must hold {starts[-1]} nonzeros, got {columns.shape} and {probs.shape}")
        self.starts, self.columns, self.probs = starts, columns, probs
        C, rows = self.class_count, self.rows
        if columns.size and (columns.min() < 0 or columns.max() >= C):
            raise ValueError(f"columns must lie in [0, {C}) for a square matrix")
        if np.any(np.diff(rows * C + columns) <= 0):
            raise ValueError("a row's columns must increase")
        if not np.all(probs > 0.0):
            raise ValueError("transition probabilities must be positive where stored")
        sums = np.bincount(rows, weights=probs, minlength=C)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"row {row} sums to {float(sums[row])!r}, not 1")

    @property
    def class_count(self) -> int:
        return self.starts.size - 1

    @property
    def rows(self) -> np.ndarray:
        """The row of each nonzero."""
        return np.repeat(np.arange(self.class_count), np.diff(self.starts))


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
    """Construct the exact transition matrix for ``spec``.

    Each class gets a row of a few candidate entries, with the bits of
    the entries of T's definition; the rows are sorted by column and their
    zeros dropped.
    """
    C = int(class_count)
    if C < 1:
        raise ValueError("class_count must be >= 1")
    check_layout(spec, C)
    eta = spec.eta
    c = np.arange(C)

    if spec.topology == "column":
        s1, s2 = map(int, spec.sinks if spec.sinks is not None else default_column_sinks(C))
        sink_rate = max(0.0, eta - 0.2)
        columns = np.column_stack([c, np.full(C, s1), np.full(C, s2)])
        probs = np.tile([1.0 - eta, eta / 2.0, eta / 2.0], (C, 1))
        # a sink keeps its own label or takes the other sink's; its third entry is empty
        columns[[s1, s2]] = [[s1, s2, s2], [s2, s1, s1]]
        probs[[s1, s2]] = [1.0 - sink_rate, sink_rate, 0.0]

    elif spec.topology == "asymmetric_pairs":
        src, dst = np.array(spec.pairs, dtype=int).T
        columns = np.column_stack([c, c])
        probs = np.tile([1.0, 0.0], (C, 1))
        columns[src, 1] = dst
        probs[src] = [1.0 - eta, eta]

    else:
        g = int(spec.group_size)
        base = c // g * g
        if spec.topology == "cyclic_superclass":
            columns = np.column_stack([c, base + (c - base + 1) % g])
            probs = np.tile([1.0 - eta, eta], (C, 1))
        else:
            columns = base[:, None] + np.arange(g)
            probs = np.full((C, g), eta / (g - 1))
            probs[c, c - base] = 1.0 - eta

    order = np.argsort(columns, axis=1, kind="stable")
    columns = np.take_along_axis(columns, order, axis=1)
    probs = np.take_along_axis(probs, order, axis=1)
    nonzero = probs != 0.0
    starts = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    return TransitionMatrix(starts, columns[nonzero], probs[nonzero])


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
    # each row's CDF over its nonzeros, in the dense row's order, padded with its total
    starts, columns = transition.starts, transition.columns
    counts = np.diff(starts)
    width = int(counts.max())
    cdf = np.zeros((C, width))
    cdf[np.arange(width) < counts[:, None]] = transition.probs
    cdf = np.cumsum(cdf, axis=1, out=cdf).ravel()
    # binary search: the row's entries <= u, as searchsorted(side="right"), clamped to its nonzeros
    first = clean * width
    pos, last = first.copy(), first + (width - 1)
    for step in [1 << bit for bit in reversed(range(width.bit_length()))]:
        pos += step * (cdf[np.minimum(pos + step - 1, last)] <= u)
    return columns[starts[clean] + np.minimum(pos - first, counts[clean] - 1)]
