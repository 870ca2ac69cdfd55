"""Dense (C, C) views of the library's sparse matrices, for tests that read whole matrices."""

import numpy as np

from dualmargin import ConfusionCounts, TransitionMatrix


def dense_transition(t: TransitionMatrix) -> np.ndarray:
    """T as a (C, C) float array, 0.0 off its stored nonzeros."""
    T = np.zeros((t.class_count, t.class_count))
    T[t.rows, t.columns] = t.probs
    return T


def transition_from_dense(probs) -> TransitionMatrix:
    """The TransitionMatrix of a 2-D array's nonzeros, which it validates."""
    probs = np.asarray(probs, dtype=np.float64)
    rows, columns = np.nonzero(probs)
    return TransitionMatrix(np.searchsorted(rows, np.arange(probs.shape[0] + 1)), columns, probs[rows, columns])


def dense_counts(confusion: ConfusionCounts) -> np.ndarray:
    """The (C, C) int64 count matrix, indexed (true class, predicted class)."""
    C = confusion.class_count
    dense = np.zeros(C * C, dtype=np.int64)
    dense[confusion.cells] = confusion.counts
    return dense.reshape(C, C)


def counts_from_dense(matrix) -> ConfusionCounts:
    """The ConfusionCounts of a square count matrix's nonzero cells."""
    matrix = np.asarray(matrix)
    cells = np.flatnonzero(matrix)
    return ConfusionCounts(matrix.shape[0], cells, matrix.ravel()[cells])
