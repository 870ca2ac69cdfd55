"""Dense (C, C) views of the library's sparse matrices, and the loop forms the library's vector forms must equal."""

import numpy as np

from dualmargin import ConfusionCounts, TransitionMatrix, batch_loss_and_grad
from dualmargin.training import _ce_loss_and_grad, _epoch_lr, init_model


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


def blocked_min_distance(means: np.ndarray, block_bytes: int) -> np.float64:
    """The smallest distance between two distinct rows, every row block of the difference tensor computed.

    Blocks of at most ``block_bytes`` of the (rows, C, dim) tensor, each
    reduced as ``np.linalg.norm`` reduces over its last axis.
    """
    count, dim = means.shape
    rows = max(1, block_bytes // (count * dim * means.itemsize))
    best = np.inf
    for lo in range(0, count - 1, rows):
        block = means[lo : lo + rows, None, :] - means[None, lo + 1 :, :]
        block *= block
        sq = np.add.reduce(block, axis=2)
        sq[np.tril_indices(sq.shape[0], -1, sq.shape[1])] = np.inf
        best = min(best, sq.min())
    return np.sqrt(best)


def per_class_corrupt_labels(clean, transition: TransitionMatrix, u: np.ndarray) -> np.ndarray:
    """Each label drawn from its T row at ``u``, by one searchsorted per clean class over its positions."""
    clean = np.asarray(clean, dtype=int)
    out = np.empty_like(clean)
    starts, columns, probs = transition.starts, transition.columns, transition.probs
    order = np.argsort(clean, kind="stable")
    bounds = np.searchsorted(clean[order], np.arange(transition.class_count + 1))
    for c in np.flatnonzero(np.diff(bounds)):
        group = order[bounds[c] : bounds[c + 1]]
        lo, hi = starts[c], starts[c + 1]
        drawn = np.searchsorted(np.cumsum(probs[lo:hi]), u[group], side="right")
        # a draw past a row's total takes the row's last nonzero class
        out[group] = columns[lo:hi][np.minimum(drawn, hi - lo - 1)]
    return out


def per_layer_sgd(data, q, cfg) -> tuple[list[np.ndarray], list[float]]:
    """The layers, in ``weights + biases`` order, and the train curve of ``train``'s run of ``cfg``.

    Each step gathers its batch by fancy indexing, adds each layer's bias
    after its product, takes each weight gradient as its own product and
    each bias gradient as a column sum, and updates each layer and its
    velocity with its own numpy calls, where ``train`` takes one product per
    layer each way with the bias as the last row of the layer's block and
    updates one flat array.
    """
    X, y = data.features, data.training_labels()
    n = X.shape[0]
    rng = np.random.default_rng(cfg.seed)
    hidden = [cfg.hidden_units] if cfg.architecture == "mlp1" else []
    model = init_model([X.shape[1], *hidden, data.class_count], rng)
    weights, biases = model.weights, model.biases
    L = len(weights)
    layers = weights + biases
    velocity = [np.zeros_like(p) for p in layers]
    q = None if q is None else np.asfortranarray(q, dtype=bool)
    curve = []
    for epoch in range(cfg.epochs):
        lr = _epoch_lr(cfg, epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            inputs = [X[sel]]
            for i in range(L):
                if i:
                    inputs.append(np.tanh(logits))
                logits = inputs[i] @ weights[i] + biases[i]
            if cfg.loss_params is None:
                value, grad = _ce_loss_and_grad(logits, y[sel])
            else:
                value, grad = batch_loss_and_grad(logits, y[sel], q, cfg.loss_params)
            loss_sum += value * len(sel)
            grads = [None] * (2 * L)
            for i in reversed(range(L)):
                grads[i], grads[L + i] = inputs[i].T @ grad, grad.sum(axis=0)
                if i:
                    grad = (grad @ weights[i].T) * (1.0 - inputs[i] ** 2)
            for i, g in enumerate(grads):
                velocity[i] = cfg.momentum * velocity[i] + g
                layers[i] -= lr * velocity[i]
        curve.append(loss_sum / n)
    return layers, curve
