"""Constructors and serialization for class-plausibility matrices.

A plausibility matrix Q is a dense boolean (C, C) array; entry ``(c, t)``
marks class ``c`` as conceivable for an instance labeled ``t``.  Q is the
only way the library names a plausible set: the loss reads column ``t``
and forces the diagonal (:func:`dualmargin.loss.sets_from_q`), so every
label always yields a nonempty set.  Dense storage is deliberate: class
counts here are at most a few thousand.

Three builders serve the experiment families: :func:`q_ordinal` (a cyclic
band of neighbouring labels; toy2d), :func:`q_mil` (the MIL asymmetry; mil-toy)
and :func:`q_from_transition` (a noise matrix's support; noise-recovery, sweep).

Q has one interchange format, read by the ``loss-eval`` command: C text
rows of space-separated 0/1 tokens.  The loader validates squareness and
token values and names the offending row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "q_ordinal",
    "q_mil",
    "q_from_transition",
    "q_from_text",
    "load_q_text",
]

MIL_NEGATIVE = 0
MIL_POSITIVE = 1


def q_ordinal(class_count: int, window: int) -> np.ndarray:
    """Band matrix marking labels within ``window`` cyclic steps as plausible.

    The last label neighbours the first (angle-like scales); ``window=0`` is the identity.
    """
    window = int(window)
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if window >= class_count:
        raise ValueError(f"window must be smaller than class_count {class_count}, got {window}")
    idx = np.arange(class_count)
    diff = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(diff, class_count - diff) <= window


def q_mil() -> np.ndarray:
    """The binary instance-labeling asymmetry: C=2, class 0 negative, 1 positive.

    A positively-labeled instance may truly be negative (false positive
    inside a positive bag), so Q[neg, pos] = 1; a negatively-labeled
    instance is never truly positive, so Q[pos, neg] = 0.
    """
    q = np.eye(2, dtype=bool)
    q[MIL_NEGATIVE, MIL_POSITIVE] = True
    return q


def q_from_transition(transition) -> np.ndarray:
    """Support mask of a :class:`~dualmargin.noise.TransitionMatrix`: Q[c, t] = (T[c, t] > 0).

    Q is made in Fortran order, the layout training reads it in.
    """
    C = transition.class_count
    q = np.zeros((C, C), dtype=bool, order="F")
    q[transition.rows, transition.columns] = True
    return q


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def q_from_text(text: str) -> np.ndarray:
    """Parse the 0/1 row format; raises ValueError naming the offending row."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty plausibility matrix text")
    for i, line in enumerate(lines):
        tokens = line.split()
        values = []
        for tok in tokens:
            if tok not in ("0", "1"):
                raise ValueError(f"row {i}: token {tok!r} is not 0 or 1")
            values.append(tok == "1")
        rows.append(values)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i}: expected {width} columns, got {len(row)}")
    q = np.array(rows, dtype=bool)
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"matrix is not square: {q.shape[0]} rows x {q.shape[1]} columns")
    return q


def load_q_text(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return q_from_text(fh.read())
