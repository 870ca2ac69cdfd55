"""Constructors and serialization for class-plausibility matrices.

A plausibility matrix Q is a dense boolean (C, C) array; entry ``(c, t)``
marks class ``c`` as conceivable for an instance labeled ``t``.  Consumers
read column ``t`` and force the diagonal, so every label always yields a
nonempty plausible set.  Dense storage is deliberate: class counts here
are at most a few thousand.

Q has one interchange format, read by the ``loss-eval`` command: C text
rows of space-separated 0/1 tokens.  The loader validates squareness and
token values and names the offending row.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "q_identity",
    "q_ordinal",
    "q_hierarchy",
    "q_mil",
    "q_from_transition",
    "per_sample_sets",
    "q_from_text",
    "load_q_text",
]

MIL_NEGATIVE = 0
MIL_POSITIVE = 1


def q_identity(class_count: int) -> np.ndarray:
    """Diagonal-only Q: every label's plausible set is just itself."""
    if class_count < 1:
        raise ValueError("class_count must be >= 1")
    return np.eye(class_count, dtype=bool)


def q_ordinal(class_count: int, window: int, boundary: str = "clamp") -> np.ndarray:
    """Band matrix marking labels within ``window`` steps as plausible.

    ``boundary="clamp"`` uses plain index distance (age-like linear
    scales); ``boundary="wrap"`` uses cyclic distance (angle-like scales).
    ``window=0`` reduces to the identity.
    """
    window = int(window)
    if window < 0:
        raise ValueError("window must be >= 0")
    if window >= class_count:
        raise ValueError(f"window {window} must be smaller than class_count {class_count}")
    if boundary not in ("clamp", "wrap"):
        raise ValueError(f"boundary must be 'clamp' or 'wrap', got {boundary!r}")
    idx = np.arange(class_count)
    diff = np.abs(idx[:, None] - idx[None, :])
    if boundary == "wrap":
        diff = np.minimum(diff, class_count - diff)
    return diff <= window


def q_hierarchy(group_of) -> np.ndarray:
    """Q marking same-group classes as mutually plausible.

    ``group_of[c]`` is the group index of class c (e.g. genus per species).
    The result is symmetric; singleton groups reduce to the identity.
    """
    groups = np.asarray(group_of, dtype=int)
    if groups.ndim != 1 or groups.size < 1:
        raise ValueError("group_of must be a non-empty 1-D array of group indices")
    return groups[:, None] == groups[None, :]


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
    """Support mask of a transition matrix: Q[c, t] = (T[c, t] > 0).

    Accepts either a raw (C, C) probability array or an object with a
    ``probs`` attribute holding one.
    """
    probs = getattr(transition, "probs", transition)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {probs.shape}")
    return probs > 0.0


def per_sample_sets(targets, sigmas, class_count: int) -> list:
    """Per-sample plausible sets {t - ceil(s), ..., t + ceil(s)} clamped to range.

    ``sigmas`` are per-sample annotation standard deviations; the window
    half-width is their ceiling.  Returns a list of
    :class:`~dualmargin.loss.PlausibleSet`.
    """
    from .loss import PlausibleSet

    targets = np.asarray(targets, dtype=int)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if targets.shape != sigmas.shape or targets.ndim != 1:
        raise ValueError("targets and sigmas must be 1-D arrays of equal length")
    if np.any(sigmas < 0.0) or not np.all(np.isfinite(sigmas)):
        raise ValueError("sigmas must be finite and non-negative")
    if targets.size and (targets.min() < 0 or targets.max() >= class_count):
        raise ValueError(f"targets out of range [0, {class_count})")
    sets = []
    for t, s in zip(targets, sigmas):
        w = math.ceil(s)
        lo = max(0, int(t) - w)
        hi = min(class_count - 1, int(t) + w)
        mask = np.zeros(class_count, dtype=bool)
        mask[lo : hi + 1] = True
        sets.append(PlausibleSet(mask=mask, target=int(t)))
    return sets


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
