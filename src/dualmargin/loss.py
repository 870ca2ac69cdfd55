"""Dual-margin classification loss with stable logit-space evaluation.

The loss scores a prediction against *two* partitions of the class set at
once: the target class ``t`` versus everything else, and a caller-supplied
*plausible set* ``S`` (with ``t`` forced in) versus its complement ``N``.
In probability space it reads

    loss(p, t, S) = log(1 + alpha * (1 - p_t) / p_t + beta * (1 - p_S) / p_S)

where ``p_S`` is the total probability of the plausible set.  With
``alpha = 1, beta = 0`` this is exactly cross-entropy; shrinking ``alpha``
and growing ``beta`` makes allocation to ``S`` the primary objective and
the exact target a tie-breaker.

The probability form divides by ``p_t`` and ``p_S`` and is unusable at
extreme logits, so it is kept only as a reference oracle
(:func:`loss_from_probs`).  The production path rewrites the loss as a pool
of three terms,

    loss = LSE{ 0, log(alpha) + lse(z, C-{t}) - z_t,
                   log(beta)  + lse(z, N) - lse(z, S) }

and evaluates it in a single pass over the logits.  Each row splits into
three disjoint cells, ``{t}``, ``P = S - {t}`` and ``N``.  Every entry of P
and N is shifted by the max of its own cell, so one ``exp`` over the whole
(B, C) batch yields both cell sums, with no overflow for any finite logit
and full relative accuracy within each cell.  The pooled scores follow
from the two cell log-sum-exps,

    lse(z, C-{t}) = logaddexp(lse P, lse N),   lse(z, S) = logaddexp(z_t, lse P),

and the pool itself is ``m + log1p(expm1(-m) + e^(a-m) + e^(b-m))`` with
``m = max(0, a, b)``, which is ``log1p(e^a + e^b)`` when ``m = 0`` and so
keeps full relative accuracy for losses far below machine epsilon.  The
analytic gradient (:func:`grad_from_logits`) reuses the same exponential
array, scaled by one coefficient per row and cell; each coefficient is the
exp of a quantity that is <= 0 by construction.

Conventions for empty/disabled terms: a zero weight or an empty index set
makes the corresponding pooled term -inf, i.e. it simply drops out of the
pool.  The constant 0 term is always present, so the loss is non-negative.

All arithmetic is float64.  Every function here is pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossParams",
    "PlausibleSet",
    "LossBreakdown",
    "softmax",
    "loss_from_probs",
    "loss_from_logits",
    "grad_from_logits",
    "sets_from_q",
    "batch_loss",
    "batch_loss_and_grad",
]

_REDUCTIONS = ("mean", "sum", "none")


@dataclass
class LossParams:
    """Weights for the two margins plus the batch reduction mode.

    ``alpha`` weighs the target-vs-rest odds, ``beta`` the plausible-vs-
    implausible odds.  Both must be non-negative; both zero is almost
    always a configuration mistake (the loss is then identically 0), so it
    is rejected unless ``allow_degenerate`` is set.
    """

    alpha: float
    beta: float
    reduction: str = "mean"
    allow_degenerate: bool = False

    def __post_init__(self) -> None:
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.reduction not in _REDUCTIONS:
            raise ValueError(f"reduction must be one of {_REDUCTIONS}, got {self.reduction!r}")
        if self.alpha == 0.0 and self.beta == 0.0 and not self.allow_degenerate:
            raise ValueError("alpha and beta are both zero; pass allow_degenerate=True if intended")


@dataclass
class PlausibleSet:
    """Boolean membership mask over classes plus the target index.

    The target is always forced into the set, mirroring how per-label sets
    are read off a plausibility matrix at consumption time.
    """

    mask: np.ndarray
    target: int

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 1 or mask.size < 1:
            raise ValueError("mask must be a non-empty 1-D boolean array")
        target = int(self.target)
        if not 0 <= target < mask.size:
            raise ValueError(f"target {target} out of range for {mask.size} classes")
        mask[target] = True
        self.mask = mask
        self.target = target

    @property
    def class_count(self) -> int:
        return int(self.mask.size)

    @classmethod
    def from_indices(cls, class_count: int, members, target: int) -> "PlausibleSet":
        mask = np.zeros(class_count, dtype=bool)
        mask[np.asarray(list(members), dtype=int)] = True
        return cls(mask=mask, target=target)


@dataclass
class LossBreakdown:
    """All intermediates of one logit-space evaluation.

    ``loss = LSE{constant_term, target_term, set_term}``.  The three pooled
    terms are the constant 0, the weighted target-vs-rest log-odds, and the
    weighted set-vs-complement log-odds; either margin term may be -inf
    when its weight is zero or its index set is empty.
    """

    constant_term: float
    target_term: float
    set_term: float
    z_target: float
    z_plausible: float
    z_implausible: float
    z_non_target: float
    loss: float

    def as_dict(self) -> dict[str, float]:
        return {
            "constant_term": self.constant_term,
            "target_term": self.target_term,
            "set_term": self.set_term,
            "z_target": self.z_target,
            "z_plausible": self.z_plausible,
            "z_implausible": self.z_implausible,
            "z_non_target": self.z_non_target,
            "loss": self.loss,
        }


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    e = z - z.max(axis=axis, keepdims=True)  # the one full-size allocation
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def loss_from_probs(p, pset: PlausibleSet, params: LossParams) -> float:
    """Probability-form reference evaluation (the slow oracle path).

    Complement masses are accumulated as explicit sums over the complement
    indices rather than as ``1 - p_t`` / ``1 - p_S``, which keeps the ratios
    exact when a set covers (nearly) the whole simplex.  Raises ValueError
    when ``p_t`` or ``p_S`` is zero: this path cannot represent infinite
    loss, use the logit form instead.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a non-empty 1-D array")
    if p.size != pset.class_count:
        raise ValueError("p and plausible set disagree on class count")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    t = pset.target
    p_t = p[t]
    p_set = p[pset.mask].sum()
    if p_t <= 0.0:
        raise ValueError("p_t is zero: infinite loss; evaluate in logit space instead")
    if p_set <= 0.0:
        raise ValueError("p_S is zero: infinite loss; evaluate in logit space instead")
    p_rest = p[np.arange(p.size) != t].sum()
    p_out = p[~pset.mask].sum()
    return float(np.log1p(params.alpha * (p_rest / p_t) + params.beta * (p_out / p_set)))


def _log_or_neg_inf(w: float) -> float:
    return math.log(w) if w > 0.0 else float("-inf")


def _cell_lse(cell_max: np.ndarray, cell_sum: np.ndarray) -> np.ndarray:
    """Cell log-sum-exp from its max and shifted sum; -inf for an empty cell."""
    return cell_max + np.log(cell_sum, out=np.full_like(cell_sum, -np.inf), where=cell_sum > 0.0)


def _kernel(Z: np.ndarray, set_masks: np.ndarray, targets: np.ndarray, alpha: float, beta: float, want_grad: bool):
    """Per-sample losses, the (B, C) gradient (None unless ``want_grad``) and
    the pooled terms as arrays keyed by :class:`LossBreakdown` field.

    The three-cell, single-exp form is described in the module docstring.
    """
    rows = np.arange(Z.shape[0])
    log_alpha = _log_or_neg_inf(alpha)
    log_beta = _log_or_neg_inf(beta)
    z_t = Z[rows, targets]

    in_p = np.where(set_masks, Z, -np.inf)
    in_p[rows, targets] = -np.inf
    max_p = in_p.max(axis=1)
    max_n = np.where(set_masks, -np.inf, Z).max(axis=1)
    e = np.where(set_masks, max_p[:, None], max_n[:, None])  # each entry's cell max
    np.subtract(Z, e, out=e)
    e[rows, targets] = -np.inf
    np.exp(e, out=e)
    # each cell sum is a row dot product with the cell's 0/1 mask; e is 0 at
    # the target, so S's mask sums P, and 1 - mask is N's
    mask = set_masks.astype(np.float64)
    lse_p = _cell_lse(max_p, np.einsum("ij,ij->i", e, mask))
    lse_n = _cell_lse(max_n, np.einsum("ij,ij->i", e, np.subtract(1.0, mask, out=mask)))

    lse_s = np.logaddexp(z_t, lse_p)
    lse_nt = np.logaddexp(lse_p, lse_n)
    term_a = log_alpha + lse_nt - z_t
    term_b = log_beta + lse_n - lse_s
    # LSE{0, a, b}: at m = 0 this is log1p(e^a + e^b), accurate far below eps
    m = np.maximum(0.0, np.maximum(term_a, term_b))
    losses = m + np.log1p(np.expm1(-m) + np.exp(term_a - m) + np.exp(term_b - m))
    terms = {
        "target_term": term_a,
        "set_term": term_b,
        "z_target": z_t,
        "z_plausible": lse_s,
        "z_implausible": lse_n,
        "z_non_target": lse_nt,
        "loss": losses,
    }
    if not want_grad:
        return losses, None, terms

    # With total = e^loss: d(e^a)/dz_c = alpha e^(z_c - z_t) off the target,
    # and d(e^b)/dz_c = beta e^(z_c - lse_s) on N but -e^(b + z_c - lse_s) on
    # S.  Both are divided by total, so every exponent below is <= 0.
    log_a = log_alpha - z_t - losses
    log_b = term_b - losses - lse_s
    coef_p = np.exp(log_a + max_p) - np.exp(log_b + max_p)
    coef_n = np.exp(log_a + max_n) + np.exp(log_beta - lse_s - losses + max_n)
    grad = np.where(set_masks, coef_p[:, None], coef_n[:, None])
    grad *= e
    grad[rows, targets] = -np.exp(term_a - losses) - np.exp(log_b + z_t)
    return losses, grad, terms


def _row_inputs(z, pset: PlausibleSet):
    """Validate one logit vector and lift it to the kernel's batch of one."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("logits must be a non-empty 1-D array")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if z.size != pset.class_count:
        raise ValueError("logits and plausible set disagree on class count")
    if z.size == 1:
        warnings.warn(
            "single-class input: both margin terms vanish and the loss is 0",
            RuntimeWarning,
            stacklevel=3,
        )
    return z[None, :], pset.mask[None, :], np.array([pset.target])


def loss_from_logits(z, pset: PlausibleSet, params: LossParams) -> LossBreakdown:
    """Stable logit-space evaluation; returns the full term breakdown.

    Agrees with :func:`loss_from_probs` on softmax(z) to ~1e-12 relative
    for moderate logits and stays finite for any finite logit magnitude.
    """
    _, _, terms = _kernel(*_row_inputs(z, pset), params.alpha, params.beta, want_grad=False)
    return LossBreakdown(constant_term=0.0, **{name: float(v[0]) for name, v in terms.items()})


def grad_from_logits(z, pset: PlausibleSet, params: LossParams) -> np.ndarray:
    """Analytic gradient of :func:`loss_from_logits` with respect to z."""
    _, grad, _ = _kernel(*_row_inputs(z, pset), params.alpha, params.beta, want_grad=True)
    return grad[0]


def sets_from_q(q: np.ndarray, targets) -> np.ndarray:
    """Per-sample membership masks: column ``t`` of Q with the target forced in.

    Returns a (B, C) boolean matrix; row b is the plausible set for
    ``targets[b]``.
    """
    q = np.asarray(q, dtype=bool)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    C = q.shape[0]
    targets = np.asarray(targets, dtype=int)
    if targets.ndim != 1:
        raise ValueError("targets must be 1-D")
    if targets.size and (targets.min() < 0 or targets.max() >= C):
        raise ValueError(f"targets out of range [0, {C})")
    masks = q.T[targets]  # fancy indexing copies only the B selected columns
    masks[np.arange(targets.size), targets] = True
    return masks


def _validate_batch(Z, targets) -> tuple[np.ndarray, np.ndarray]:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("Z must be a (batch, classes) array")
    if not np.all(np.isfinite(Z)):
        raise ValueError("logits must be finite")
    targets = np.asarray(targets, dtype=int)
    if targets.shape != (Z.shape[0],):
        raise ValueError("targets must have one entry per batch row")
    if Z.shape[1] == 1:
        warnings.warn(
            "single-class input: both margin terms vanish and the loss is 0",
            RuntimeWarning,
            stacklevel=3,
        )
    return Z, targets


def batch_loss(Z, targets, q, params: LossParams):
    """Batched loss over per-sample sets read from the columns of Q.

    Returns a scalar under mean/sum reduction, or the per-sample vector
    when ``params.reduction == "none"``.
    """
    Z, targets = _validate_batch(Z, targets)
    losses, _, _ = _kernel(Z, sets_from_q(q, targets), targets, params.alpha, params.beta, want_grad=False)
    return _reduce(losses, params.reduction)


def batch_loss_and_grad(Z, targets, q, params: LossParams):
    """Batched loss plus the gradient of the reduced loss w.r.t. Z.

    Under ``reduction="none"`` the gradient rows are the per-sample
    gradients (i.e. the Jacobian diagonal blocks stacked as (B, C)).
    """
    Z, targets = _validate_batch(Z, targets)
    losses, grads, _ = _kernel(Z, sets_from_q(q, targets), targets, params.alpha, params.beta, want_grad=True)
    if params.reduction == "mean":
        grads /= Z.shape[0]
    return _reduce(losses, params.reduction), grads


def _reduce(losses: np.ndarray, reduction: str):
    if reduction == "mean":
        return float(losses.mean())
    if reduction == "sum":
        return float(losses.sum())
    return losses
