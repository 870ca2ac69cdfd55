"""From-scratch softmax classifier training with analytic backprop.

Two architectures (a linear map and a one-hidden-layer tanh MLP) trained
by minibatch SGD with momentum and an optional cosine learning-rate
schedule.  The objective is either plain cross-entropy or the dual-margin
loss from :mod:`dualmargin.loss`; gradients w.r.t. the logits come from
the analytic expressions, never from numeric differentiation.

Cross-entropy is implemented directly here (log-softmax form) rather than
as the alpha=1, beta=0 special case, so the two code paths can be checked
against each other at the trajectory level.

A training run is sequential and bitwise deterministic for a fixed seed:
initialization and shuffling draw from one seeded generator in a fixed
order.  Independent runs are safe to execute in parallel.  A run keeps its
layers, their gradients and their momentum each in one flat array, so a
step updates every layer with three whole-array operations.  Each layer is
one (fan_in + 1, fan_out) block of that array, its weights the first
fan_in rows and its bias the last, and each layer's input in a step ends in
a column of ones, so a layer's forward is one matrix product with its block
and its gradient, weights and bias together, one more.  Prediction adds
each bias after its product instead, so an evaluation does not depend on
how a run was trained; the layers of the model a run returns are the rows
of its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .loss import LossParams, _mean, _row_max, batch_loss_and_grad, sets_from_q, softmax

__all__ = [
    "ModelParams",
    "TrainConfig",
    "ExperimentReport",
    "ConfusionCounts",
    "TrainingDivergedError",
    "init_model",
    "predict_logits",
    "train",
    "evaluate",
    "train_mil_instances",
    "diagonal_mass",
]

ARCHITECTURES = ("linear", "mlp1")
SCHEDULES = ("constant", "cosine")

# the defaults of TrainConfig's optional hyperparameters, which the
# experiment families' train sections read too
TRAIN_DEFAULTS = {"momentum": 0.9, "lr_schedule": "constant", "architecture": "linear", "hidden_units": 64}


class TrainingDivergedError(RuntimeError):
    """Raised when a run's logits, loss or weights, or its evaluation logits, are non-finite."""


@dataclass
class ModelParams:
    """Weights (in, out) and biases per layer, input layer first; tanh follows all but the last.

    Any arrays of those shapes make a model.  In a model :func:`train`
    returns, each layer's weights and bias are the rows of one (in + 1, out)
    block of one flat array, the bias last, and the blocks follow each other
    in layer order.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    ``loss_params is None`` trains cross-entropy; otherwise the run trains
    the dual-margin loss at those weights.  Either loss is the batch mean,
    so updates are batch-size stable.  A bad value raises ValueError, its
    message starting with the field.
    """

    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    momentum: float = TRAIN_DEFAULTS["momentum"]
    loss_params: LossParams | None = None
    lr_schedule: str = TRAIN_DEFAULTS["lr_schedule"]
    architecture: str = TRAIN_DEFAULTS["architecture"]
    hidden_units: int = TRAIN_DEFAULTS["hidden_units"]

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be in (0, inf), got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be in [1, inf), got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be in [1, inf), got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.hidden_units < 1:
            raise ValueError(f"hidden_units must be in [1, inf), got {self.hidden_units}")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(f"lr_schedule must be one of {SCHEDULES}, got {self.lr_schedule!r}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}")


@dataclass
class ConfusionCounts:
    """The nonzero cells of a (C, C) confusion matrix of (true class, predicted class) counts.

    ``cells`` holds the flat indices ``true * C + pred`` in increasing
    order and ``counts`` the positive count of each; every other cell is 0.
    A test split of a few samples per class fills a few of the C * C cells.
    """

    class_count: int
    cells: np.ndarray
    counts: np.ndarray


@dataclass
class ExperimentReport:
    """Metrics of one run: curve, accuracy, confusion, probability masses.

    The record a run's ``report.json`` entry is written from, as its
    ``vars``.  ``confusion_matrix`` holds the counts as
    :class:`ConfusionCounts`, written as its ``class_count``, ``cells`` and
    ``counts``, and ``diagonal_mass`` is its :func:`diagonal_mass`.
    ``mean_mass`` holds the average probability allocated to the exact
    label, its plausible set, and the complement (only when a plausibility
    matrix was supplied at evaluation time).
    """

    train_curve: list[float]
    clean_test_accuracy: float
    confusion_matrix: ConfusionCounts
    diagonal_mass: float
    mean_mass: dict[str, float] | None = None
    extras: dict = field(default_factory=dict)


def init_model(widths, rng: np.random.Generator) -> ModelParams:
    """Layers from ``widths`` (input dim, hidden widths, class count), drawn in order: uniform by fan-in, zero biases."""
    weights = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    return ModelParams(weights=weights, biases=[np.zeros(width) for width in widths[1:]])


def predict_logits(model: ModelParams, X: np.ndarray) -> np.ndarray:
    """The logits of the rows of ``X``: each layer's product, then its bias added, tanh between layers."""
    out = np.asarray(X, dtype=np.float64)
    for i in range(len(model.weights)):
        if i:
            np.tanh(out, out=out)
        # the bias is added in place: at evaluation a logits array is (n, C)
        out = out @ model.weights[i]
        out += model.biases[i]
    return out


def _forward(blocks: list[np.ndarray], inputs: list[np.ndarray]) -> np.ndarray:
    """A training batch's logits: one product per layer of its input, which
    ends in a column of ones, with its block.  ``inputs[0]`` holds the batch;
    each hidden layer's tanh is written into the next input's other columns."""
    for i in range(1, len(blocks)):
        hidden = np.matmul(inputs[i - 1], blocks[i - 1], out=inputs[i][:, :-1])
        np.tanh(hidden, out=hidden)
    return inputs[-1] @ blocks[-1]


def _ce_loss_and_grad(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its logit gradient (softmax minus one-hot).

    One (B, C) array holds the shifted logits, then their exp, then the
    gradient; the targets are read and written through their indices into
    the flattened array.  Logits of another layout are copied to C order
    first, since numpy sums a Fortran-ordered row in another order.
    """
    logits = np.ascontiguousarray(logits)
    B, C = logits.shape
    at_t = np.arange(0, B * C, C) + targets
    grad = logits - _row_max(logits)[:, None]
    z_t = grad.take(at_t)
    np.exp(grad, out=grad)
    total = grad.sum(axis=1)
    loss = _mean(np.log(total) - z_t)
    grad /= (total * B)[:, None]
    grad.put(at_t, grad.take(at_t) - 1.0 / B)
    return loss, grad


def _backward(blocks: list[np.ndarray], inputs: list[np.ndarray], grad: np.ndarray, out=None) -> list[np.ndarray]:
    """Each block's gradient from the logits' ``grad``, its weights' and bias's
    in one product with the layer's input: into the arrays of ``out`` when it
    is given, else into new ones."""
    grads = [None] * len(blocks) if out is None else out
    for i in reversed(range(len(blocks))):
        grads[i] = np.matmul(inputs[i].T, grad, out=grads[i])
        if i:
            grad = (grad @ blocks[i][:-1].T) * (1.0 - inputs[i][:, :-1] ** 2)
    return grads


def _blocks(flat: np.ndarray, model: ModelParams) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one (fan_in + 1, fan_out) block per layer of ``model``."""
    chunks = np.split(flat, np.cumsum([w.size + w.shape[1] for w in model.weights])[:-1])
    return [chunk.reshape(-1, w.shape[1]) for chunk, w in zip(chunks, model.weights)]


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    if cfg.lr_schedule == "cosine":
        return cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * epoch / cfg.epochs))
    return cfg.learning_rate


def train(
    data,
    q: np.ndarray | None,
    cfg: TrainConfig,
    test_data=None,
) -> tuple[ModelParams, ExperimentReport]:
    """Train a classifier on ``data`` and evaluate against clean labels.

    Supervision uses the dataset's noisy labels when present; clean labels
    are only ever read at evaluation time.  The run trains cross-entropy
    when ``cfg.loss_params`` is None, else the dual-margin loss, which
    reads its plausible sets from ``q``; under either loss ``q`` also gives
    the mass diagnostics of the evaluation.  Evaluation runs on
    ``test_data`` when given, else on the training features.

    Raises :class:`TrainingDivergedError` on non-finite logits or loss, on
    a non-finite epoch loss sum, on non-finite weights at the end, or on
    non-finite evaluation logits.  The returned model's layers are
    consecutive blocks of one flat array, each (fan_in + 1, fan_out) with
    the weights in its first rows and the bias in its last, and its
    ``weights`` and ``biases`` are views of those rows.
    """
    X = data.features
    y = data.training_labels()
    n = X.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    C = data.class_count
    if q is not None:
        # sets_from_q gathers columns of Q: Fortran order makes them contiguous
        q = np.asfortranarray(q, dtype=bool)
        if q.shape != (C, C):
            raise ValueError(f"Q shape {q.shape} does not match class count {C}")
    params = cfg.loss_params
    if params is not None and q is None:
        raise ValueError("dual_margin loss requires a plausibility matrix")
    loss = "cross_entropy" if params is None else "dual_margin"

    rng = np.random.default_rng(cfg.seed)
    hidden = [cfg.hidden_units] if cfg.architecture == "mlp1" else []
    model = init_model([X.shape[1], *hidden, C], rng)
    flat = np.concatenate([np.vstack((w, b)).ravel() for w, b in zip(model.weights, model.biases)])
    blocks = _blocks(flat, model)
    model.weights, model.biases = [block[:-1] for block in blocks], [block[-1] for block in blocks]
    grads = np.empty_like(flat)
    grad_blocks = _blocks(grads, model)
    velocity = np.zeros_like(flat)
    # a batch row of each layer's input, then a 1 that meets the bias row
    inputs = [np.ones((min(n, cfg.batch_size), block.shape[0])) for block in blocks]

    curve: list[float] = []
    # divergence is reported below, or by the weight check after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = _epoch_lr(cfg, epoch)
            order = rng.permutation(n)
            loss_sum = 0.0
            for lo in range(0, n, cfg.batch_size):
                sel = order[lo : lo + cfg.batch_size]
                batch = [a[: len(sel)] for a in inputs]
                # np.take into a strided out= buffers a copy of its own, more slowly
                np.copyto(batch[0][:, :-1], X.take(sel, axis=0))
                yb = y.take(sel)
                logits = _forward(blocks, batch)
                if not np.isfinite(logits).all():
                    raise TrainingDivergedError(
                        f"non-finite logits at epoch {epoch}, batch offset {lo} (lr={lr:g})"
                    )
                if params is None:
                    loss_value, grad_logits = _ce_loss_and_grad(logits, yb)
                else:
                    loss_value, grad_logits = batch_loss_and_grad(logits, yb, q, params)
                if not math.isfinite(loss_value):
                    raise TrainingDivergedError(
                        f"non-finite loss {loss_value!r} at epoch {epoch}, batch offset {lo} "
                        f"(lr={lr:g}, loss={loss})"
                    )
                loss_sum += loss_value * len(sel)
                _backward(blocks, batch, grad_logits, out=grad_blocks)
                velocity *= cfg.momentum
                velocity += grads
                flat -= lr * velocity
            # a finite batch mean times the batch's size can overflow
            if not math.isfinite(loss_sum):
                raise TrainingDivergedError(f"non-finite loss sum {loss_sum!r} at epoch {epoch} (lr={lr:g}, loss={loss})")
            curve.append(loss_sum / n)
    if not np.isfinite(flat).all():
        raise TrainingDivergedError(f"non-finite weights after the last epoch (lr={lr:g}, loss={loss})")

    report = evaluate(model, test_data if test_data is not None else data, q=q)
    report.train_curve = curve
    return model, report


# bytes of one block of evaluate's logits
_EVAL_BLOCK_BYTES = 1 << 20


def evaluate(model: ModelParams, data, q: np.ndarray | None = None) -> ExperimentReport:
    """Accuracy, confusion matrix, its diagonal mass, and probability-mass diagnostics.

    Predictions are argmax over logits with ties broken toward the lowest
    class index.  The confusion matrix counts (true class, predicted
    class) pairs against the clean labels as :class:`ConfusionCounts`,
    taken by a stable sort of the flat cell indices, and the report's
    ``diagonal_mass`` is :func:`diagonal_mass` of it.  When ``q`` is
    given, the mean masses of the exact label, its plausible set, and the
    complement are computed w.r.t. the clean labels.  A non-finite logit,
    which finite but huge weights can give, raises
    :class:`TrainingDivergedError`.

    Rows are scored in blocks of about 1 MB of logits, of equal height.
    Every per-row result depends only on that row's logits, and each mean
    is taken once over all rows, so the report equals that of one pass
    over the whole set bit for bit whenever the matrix product gives each
    block the rows it gives the whole set (BLAS may round a product of a
    few rows differently; equal blocks keep them large).
    """
    X = data.features
    labels = data.clean_labels
    C = data.class_count
    n = labels.size
    blocks = -(-n * C * 8 // _EVAL_BLOCK_BYTES)
    height = -(-n // blocks) if n else 1
    preds = np.empty(n, dtype=np.intp)
    masses = None if q is None else np.empty((3, n))
    # finite weights may overflow the logits, which raises below, and finite
    # logits the softmax's shift, to -inf, whose exp is 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, height):
            block = slice(lo, lo + height)
            logits = predict_logits(model, X[block])
            # a NaN logit makes both NaN; no (n, C) temporary is made
            if not (np.isfinite(logits.min()) and np.isfinite(logits.max())):
                raise TrainingDivergedError(f"non-finite logits at evaluation, row offset {lo}")
            preds[block] = np.argmax(logits, axis=1)
            if masses is None:
                continue
            block_labels = labels[block]
            probs = softmax(logits, axis=1)
            masks = sets_from_q(q, block_labels)
            masses[0, block] = probs[np.arange(block_labels.size), block_labels]
            # the masked sums reuse spent arrays: the logits, then probs.
            # copyto keeps np.where's semantics; a product with the masks would
            # spread NaN and inf
            logits.fill(0.0)
            np.copyto(logits, probs, where=masks)
            masses[1, block] = logits.sum(axis=1)
            np.copyto(probs, 0.0, where=masks)
            masses[2, block] = probs.sum(axis=1)
    # a stable argsort, as build_transition takes: toy2d and mil-toy sort
    # nothing before this, and a process that first calls np.sort pages in
    # about 0.3 MB more of numpy
    cells = labels * C + preds
    cells = cells[np.argsort(cells, kind="stable")]
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    confusion = ConfusionCounts(C, cells[first], np.diff(first, append=n))
    accuracy = float((preds == labels).mean()) if n else 0.0
    mean_mass = None
    if masses is not None:
        keys = ("p_target", "p_plausible", "p_implausible")
        mean_mass = {key: float(row.mean()) for key, row in zip(keys, masses)}

    return ExperimentReport(
        train_curve=[],
        clean_test_accuracy=accuracy,
        confusion_matrix=confusion,
        diagonal_mass=diagonal_mass(confusion),
        mean_mass=mean_mass,
    )


def diagonal_mass(confusion: ConfusionCounts) -> float:
    """Trace of the row-normalized confusion matrix.

    A scalar proxy for how near-diagonal the prediction structure is;
    equals the sum of per-class recalls.  Empty rows contribute 0.
    """
    diagonal, row_sums = _diagonal_and_row_sums(confusion)
    safe = np.where(row_sums > 0, row_sums, 1.0)
    return float((diagonal / safe).sum())


def _diagonal_and_row_sums(confusion: ConfusionCounts) -> tuple[np.ndarray, np.ndarray]:
    """The dense length-C diagonal and row sums of the counts, as floats of exact counts."""
    C = confusion.class_count
    true, pred = np.divmod(confusion.cells, C)
    diagonal = np.bincount(true, weights=np.where(true == pred, confusion.counts, 0), minlength=C)
    return diagonal, np.bincount(true, weights=confusion.counts, minlength=C)


def train_mil_instances(bags, cfg: TrainConfig, q: np.ndarray | None = None) -> ExperimentReport:
    """Instance-level training on inherited bag labels.

    Every instance inherits its bag label for supervision; the hidden
    instance truth is used only to score the result.  The report's extras
    carry per-class recall, read from the report's confusion counts, plus
    the recall on truly-negative instances inside positive bags, the
    population that inherited wrong labels, read from one more
    :func:`evaluate` over the positive bags' instances.
    """
    from .datasets import LabeledDataset

    X, inherited, truth = bags.flatten()
    dataset = LabeledDataset(features=X, clean_labels=truth, class_count=2, noisy_labels=inherited)
    model, report = train(dataset, q, cfg, test_data=dataset)
    # an instance inherits its bag's label
    in_pos = inherited == 1
    pos_bags = evaluate(model, LabeledDataset(features=X[in_pos], clean_labels=truth[in_pos], class_count=2))
    recalls = _class_recalls(report.confusion_matrix)
    report.extras["recall_negative"] = recalls[0]
    report.extras["recall_positive"] = recalls[1]
    report.extras["recall_negative_in_positive_bags"] = _class_recalls(pos_bags.confusion_matrix)[0]
    return report


def _class_recalls(confusion: ConfusionCounts) -> list[float | None]:
    """Each class's recall, a correctly rounded count / total as the mean of a boolean mask is; None for an empty row."""
    diagonal, row_sums = _diagonal_and_row_sums(confusion)
    return [hits / total if total else None for hits, total in zip(diagonal.tolist(), row_sums.tolist())]
