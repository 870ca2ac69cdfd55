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
order.  Independent runs are safe to execute in parallel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .loss import LossParams, batch_loss_and_grad, sets_from_q, softmax

__all__ = [
    "ModelParams",
    "TrainConfig",
    "ExperimentReport",
    "TrainingDivergedError",
    "init_model",
    "predict_logits",
    "train",
    "evaluate",
    "train_mil_instances",
    "diagonal_mass",
]

ARCHITECTURES = ("linear", "mlp1")
LOSSES = ("cross_entropy", "dual_margin")
SCHEDULES = ("constant", "cosine")


class TrainingDivergedError(RuntimeError):
    """Raised when a run's logits, loss or weights, or its evaluation logits, are non-finite."""


@dataclass
class ModelParams:
    """Weights and biases per layer; one layer for linear, two for mlp1."""

    architecture: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    ``loss_params`` is required when ``loss == "dual_margin"``.  The
    reduction inside ``loss_params`` is forced to mean so updates are
    batch-size stable.
    """

    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    momentum: float = 0.9
    loss: str = "cross_entropy"
    loss_params: LossParams | None = None
    lr_schedule: str = "constant"
    architecture: str = "linear"
    hidden_units: int = 64

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(f"lr_schedule must be one of {SCHEDULES}, got {self.lr_schedule!r}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}")
        if self.loss == "dual_margin" and self.loss_params is None:
            raise ValueError("dual_margin loss requires loss_params")


@dataclass
class ExperimentReport:
    """Metrics of one run: curve, accuracy, confusion, probability masses.

    ``confusion_matrix`` is an int32 (C, C) array of counts.
    ``mean_mass`` holds the average probability allocated to the exact
    label, its plausible set, and the complement (only when a
    plausibility matrix was supplied at evaluation time).  ``wall_time``
    is informational and is excluded from deterministic artifacts.
    """

    train_curve: list[float]
    clean_test_accuracy: float
    confusion_matrix: np.ndarray
    mean_mass: dict[str, float] | None = None
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)


def init_model(architecture: str, dim: int, class_count: int, hidden_units: int, rng: np.random.Generator) -> ModelParams:
    """Symmetric uniform init scaled by fan-in; biases start at zero."""

    def uniform(fan_in: int, shape) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    if architecture == "linear":
        return ModelParams(
            architecture="linear",
            weights=[uniform(dim, (dim, class_count))],
            biases=[np.zeros(class_count)],
        )
    if architecture == "mlp1":
        return ModelParams(
            architecture="mlp1",
            weights=[uniform(dim, (dim, hidden_units)), uniform(hidden_units, (hidden_units, class_count))],
            biases=[np.zeros(hidden_units), np.zeros(class_count)],
        )
    raise ValueError(f"unknown architecture {architecture!r}")


def _forward(model: ModelParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    # the bias is added in place: at evaluation a logits array is (n, C)
    out = X @ model.weights[0]
    out += model.biases[0]
    if model.architecture == "linear":
        return out, None
    hidden = np.tanh(out, out=out)
    logits = hidden @ model.weights[1]
    logits += model.biases[1]
    return logits, hidden


def predict_logits(model: ModelParams, X: np.ndarray) -> np.ndarray:
    logits, _ = _forward(model, np.asarray(X, dtype=np.float64))
    return logits


def _ce_loss_and_grad(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its logit gradient (softmax minus one-hot).

    One (B, C) array holds the shifted logits, then their exp, then the
    gradient.
    """
    B = logits.shape[0]
    idx = np.arange(B)
    grad = logits - logits.max(axis=1, keepdims=True)
    z_t = grad[idx, targets]
    np.exp(grad, out=grad)
    total = grad.sum(axis=1)
    loss = float((np.log(total) - z_t).mean())
    grad /= (total * B)[:, None]
    grad[idx, targets] -= 1.0 / B
    return loss, grad


def _backward(model: ModelParams, X: np.ndarray, hidden: np.ndarray | None, grad_logits: np.ndarray):
    """Gradients per layer, matching the (weights, biases) layout."""
    if model.architecture == "linear":
        return [X.T @ grad_logits], [grad_logits.sum(axis=0)]
    d_w2 = hidden.T @ grad_logits
    d_b2 = grad_logits.sum(axis=0)
    d_hidden = grad_logits @ model.weights[1].T
    d_pre = d_hidden * (1.0 - hidden**2)
    return [X.T @ d_pre, d_w2], [d_pre.sum(axis=0), d_b2]


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
    are only ever read at evaluation time.  ``q`` supplies per-label
    plausible sets for the dual-margin loss and, under either loss, the
    mass diagnostics of the evaluation; cross-entropy trains without it.
    Evaluation runs on ``test_data`` when given, else on the training
    features.

    Raises :class:`TrainingDivergedError` on non-finite logits or loss, on
    non-finite weights at the end, or on non-finite evaluation logits.
    """
    start = time.perf_counter()
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
    if cfg.loss == "dual_margin":
        if q is None:
            raise ValueError("dual_margin loss requires a plausibility matrix")
        params = LossParams(
            alpha=cfg.loss_params.alpha,
            beta=cfg.loss_params.beta,
            reduction="mean",
            allow_degenerate=cfg.loss_params.allow_degenerate,
        )

    rng = np.random.default_rng(cfg.seed)
    model = init_model(cfg.architecture, X.shape[1], C, cfg.hidden_units, rng)
    velocity_w = [np.zeros_like(w) for w in model.weights]
    velocity_b = [np.zeros_like(b) for b in model.biases]

    curve: list[float] = []
    for epoch in range(cfg.epochs):
        lr = _epoch_lr(cfg, epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            Xb, yb = X[sel], y[sel]
            # divergence is reported below, or by the weight check after the loop
            with np.errstate(over="ignore", invalid="ignore"):
                logits, hidden = _forward(model, Xb)
                if not np.all(np.isfinite(logits)):
                    raise TrainingDivergedError(
                        f"non-finite logits at epoch {epoch}, batch offset {lo} (lr={lr:g})"
                    )
                if cfg.loss == "cross_entropy":
                    loss_value, grad_logits = _ce_loss_and_grad(logits, yb)
                else:
                    loss_value, grad_logits = batch_loss_and_grad(logits, yb, q, params)
                if not np.isfinite(loss_value):
                    raise TrainingDivergedError(
                        f"non-finite loss {loss_value!r} at epoch {epoch}, batch offset {lo} "
                        f"(lr={lr:g}, loss={cfg.loss})"
                    )
                loss_sum += loss_value * len(sel)
                grads_w, grads_b = _backward(model, Xb, hidden, grad_logits)
                for i in range(len(model.weights)):
                    velocity_w[i] = cfg.momentum * velocity_w[i] + grads_w[i]
                    velocity_b[i] = cfg.momentum * velocity_b[i] + grads_b[i]
                    model.weights[i] -= lr * velocity_w[i]
                    model.biases[i] -= lr * velocity_b[i]
        curve.append(loss_sum / n)
    if not all(np.all(np.isfinite(p)) for p in model.weights + model.biases):
        raise TrainingDivergedError(f"non-finite weights after the last epoch (lr={lr:g}, loss={cfg.loss})")

    report = evaluate(model, test_data if test_data is not None else data, q=q)
    report.train_curve = curve
    report.wall_time = time.perf_counter() - start
    return model, report


# bytes of one block of evaluate's logits
_EVAL_BLOCK_BYTES = 2 << 20


def evaluate(model: ModelParams, data, q: np.ndarray | None = None) -> ExperimentReport:
    """Accuracy, confusion matrix, and probability-mass diagnostics.

    Predictions are argmax over logits with ties broken toward the lowest
    class index.  The confusion matrix holds int32 counts indexed (true
    class, predicted class) against the clean labels.  When ``q`` is
    given, the mean masses of the exact label, its plausible set, and the
    complement are computed w.r.t. the clean labels.  A non-finite logit,
    which finite but huge weights can give, raises
    :class:`TrainingDivergedError`.

    Rows are scored in blocks of about 2 MB of logits, of equal height.
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
    logits = probs = masks = None  # free the last block before the C x C matrix is made

    confusion = np.zeros((C, C), dtype=np.int32)
    np.add.at(confusion, (labels, preds), 1)
    accuracy = float((preds == labels).mean()) if n else 0.0
    mean_mass = None
    if masses is not None:
        keys = ("p_target", "p_plausible", "p_implausible")
        mean_mass = {key: float(row.mean()) for key, row in zip(keys, masses)}

    return ExperimentReport(
        train_curve=[],
        clean_test_accuracy=accuracy,
        confusion_matrix=confusion,
        mean_mass=mean_mass,
    )


def diagonal_mass(confusion) -> float:
    """Trace of the row-normalized confusion matrix.

    A scalar proxy for how near-diagonal the prediction structure is;
    equals the sum of per-class recalls.  Empty rows contribute 0.
    """
    confusion = np.asarray(confusion)
    # row sums of exact counts, without a float copy of the matrix
    row_sums = confusion.sum(axis=1, dtype=np.float64)
    safe = np.where(row_sums > 0, row_sums, 1.0)
    return float((np.diag(confusion) / safe).sum())


def train_mil_instances(bags, cfg: TrainConfig, q: np.ndarray | None = None) -> ExperimentReport:
    """Instance-level training on inherited bag labels.

    Every instance inherits its bag label for supervision; the hidden
    instance truth is used only to score the result.  The report's extras
    carry per-class recall plus the recall on truly-negative instances
    inside positive bags, the population that inherited wrong labels.
    """
    from .datasets import LabeledDataset

    X, inherited, truth, bag_index = bags.flatten()
    dataset = LabeledDataset(features=X, clean_labels=truth, class_count=2, noisy_labels=inherited)
    model, report = train(dataset, q, cfg, test_data=dataset)

    logits = predict_logits(model, X)
    preds = np.argmax(logits, axis=1)
    neg = truth == 0
    pos = truth == 1
    neg_in_pos_bags = neg & (bags.bag_labels[bag_index] == 1)
    report.extras["recall_negative"] = float((preds[neg] == 0).mean()) if neg.any() else float("nan")
    report.extras["recall_positive"] = float((preds[pos] == 1).mean()) if pos.any() else float("nan")
    report.extras["recall_negative_in_positive_bags"] = (
        float((preds[neg_in_pos_bags] == 0).mean()) if neg_in_pos_bags.any() else float("nan")
    )
    return report
