"""Dual-margin classification loss with stable logit-space evaluation.

The loss scores a prediction against *two* partitions of the class set at
once: the target class ``t`` versus everything else, and the target's
*plausible set* ``S`` versus its complement ``N``.  ``S`` is always read
off a boolean plausibility matrix Q: it is column ``t`` of Q with ``t``
forced in (:func:`sets_from_q`), for one row as for a batch.  In
probability space it reads

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
and N is shifted by the max of its own cell, so one ``exp`` over a (B, C)
batch yields both cell sums, with no overflow for any finite logit and
full relative accuracy within each cell.  Below 17 classes the two
cell maxima are reduced class-major, which is faster on such narrow rows
and, a maximum being exact in any order, gives the same bits.  The pooled
scores follow from the two cell log-sum-exps,

    lse(z, C-{t}) = logaddexp(lse P, lse N),   lse(z, S) = logaddexp(z_t, lse P),

and the pool itself is ``m + log1p(expm1(-m) + e^(a-m) + e^(b-m))`` with
``m = max(0, a, b)``, which is ``log1p(e^a + e^b)`` when ``m = 0`` and so
keeps full relative accuracy for losses far below machine epsilon.  The
analytic gradient (:func:`batch_loss_and_grad`) reuses the same exponential
array, scaled by one coefficient per row and cell; each coefficient is the
exp of a quantity that is <= 0 in exact arithmetic and clamped at 0, since
rounding at logits past about 1e19 can leave it far above 0.  A batch of
1 MB or more of logits is taken in equal row blocks of 0.5 to 1 MB, whose
arrays stay in cache; every reduction is per row, so blocks keep the bits.
When every row of such a batch has an empty P or an empty N, as under
column noise and the MIL Q, whose labels each have their own class or all C
as their set, the gradient takes one max, one shift, one ``exp``, one sum
and one coefficient per row where the kernel takes two of each.  The pooled
tail (:func:`_pool`) sees the empty cell as the kernel does, with max -inf
and sum 0, so every value keeps the kernel's bits.

Conventions for empty/disabled terms: a zero weight or an empty index set
makes the corresponding pooled term -inf, i.e. it simply drops out of the
pool.  The constant 0 term is always present, so the loss is non-negative.

All arithmetic is float64.  Every function here is pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "LossParams",
    "LossBreakdown",
    "softmax",
    "loss_from_probs",
    "loss_from_logits",
    "sets_from_q",
    "batch_loss",
    "batch_loss_and_grad",
]

@dataclass
class LossParams:
    """Weights for the two margins.

    ``alpha`` weighs the target-vs-rest odds, ``beta`` the plausible-vs-
    implausible odds.  Both must be non-negative; both zero is almost
    always a configuration mistake (the loss is then identically 0), so it
    is rejected unless ``allow_degenerate`` is set.  A batch's loss is
    always the mean of its per-sample losses.
    """

    alpha: float
    beta: float
    allow_degenerate: bool = False

    def __post_init__(self) -> None:
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.alpha == 0.0 and self.beta == 0.0 and not self.allow_degenerate:
            raise ValueError("alpha and beta are both zero; pass allow_degenerate=True if intended")


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
        return asdict(self)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    e = z - z.max(axis=axis, keepdims=True)  # the one full-size allocation
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def loss_from_probs(p, target: int, q, params: LossParams) -> float:
    """Probability-form reference evaluation (the slow oracle path).

    The plausible set is column ``target`` of ``q``, as in
    :func:`loss_from_logits`.  Complement masses are accumulated as
    explicit sums over the complement indices rather than as ``1 - p_t`` /
    ``1 - p_S``, which keeps the ratios exact when a set covers (nearly)
    the whole simplex.  Raises ValueError when ``p_t`` or ``p_S`` is zero:
    this path cannot represent infinite loss, use the logit form instead.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a non-empty 1-D array")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    _, at_t, masks = _validate_batch(p[None, :], [target], q)
    t, mask = at_t[0], masks[0]  # row 0's flat index is its target
    p_t = p[t]
    p_set = p[mask].sum()
    if p_t <= 0.0:
        raise ValueError("p_t is zero: infinite loss; evaluate in logit space instead")
    if p_set <= 0.0:
        raise ValueError("p_S is zero: infinite loss; evaluate in logit space instead")
    p_rest = p[np.arange(p.size) != t].sum()
    p_out = p[~mask].sum()
    return float(np.log1p(params.alpha * (p_rest / p_t) + params.beta * (p_out / p_set)))


def _log_or_neg_inf(w: float) -> float:
    return math.log(w) if w > 0.0 else float("-inf")


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)``, reduced class-major up to 16 columns, where numpy's
    inner-loop call per row dominates; a maximum is exact in any order."""
    if a.shape[1] <= 16:
        return np.ascontiguousarray(a.T).max(axis=0)
    return a.max(axis=1)


def _kernel(Z: np.ndarray, set_masks: np.ndarray, at_t: np.ndarray, alpha: float, beta: float, want_grad: bool, out=None):
    """Per-sample losses, the (B, C) gradient (None unless ``want_grad``; made
    in ``out`` if given) and the pooled terms, arrays keyed by LossBreakdown field.

    ``at_t`` holds each row's target as a row-major flat index, which take and
    put honour on any layout.  The form is described in the module docstring.
    """
    z_t = Z.take(at_t)

    # one work array holds P's values, then N's, then each entry's cell max,
    # then S's 0/1 mask; the masked copies keep np.where's exact values.  They
    # are cheap on the row-structured masks of the Q builders, dearer than
    # np.where on unstructured ones
    work = np.where(set_masks, Z, -np.inf)
    work.put(at_t, -np.inf)
    max_p = _row_max(work)
    np.copyto(work, Z)
    np.copyto(work, -np.inf, where=set_masks)
    max_n = _row_max(work)
    np.copyto(work, max_n[:, None])
    np.copyto(work, max_p[:, None], where=set_masks)
    e = np.subtract(Z, work, out=out)
    e.put(at_t, -np.inf)
    np.exp(e, out=e)
    # each cell sum is a row dot product with the cell's 0/1 mask; e is 0 at
    # the target, so S's mask sums P, and 1 - mask is N's.  A cell sums to >= 1
    # (e^0 at its max) unless empty; then its lse is -inf + log(0) = -inf
    np.copyto(work, set_masks)
    sum_p = np.einsum("ij,ij->i", e, work)
    sum_n = np.einsum("ij,ij->i", e, np.subtract(1.0, work, out=work))
    losses, terms, grad = _pool(z_t, max_p, sum_p, max_n, sum_n, alpha, beta, want_grad)
    if not want_grad:
        return losses, None, terms
    coef_p, coef_n, at_target = grad
    # the gradient is built in e; each entry takes its own cell's coefficient
    # (coef_p + mask * (coef_n - coef_p) would round coef_n away when it is
    # far below coef_p)
    np.copyto(work, coef_n[:, None])
    np.copyto(work, coef_p[:, None], where=set_masks)
    e *= work
    e.put(at_t, at_target)
    return losses, e, terms


def _pool(z_t, max_p, sum_p, max_n, sum_n, alpha: float, beta: float, want_grad: bool):
    """Per-sample losses and pooled terms from each row's target logit and its
    two cells' maxima and exp sums (an empty cell has max -inf and sum 0), and,
    if ``want_grad``, the coefficients of P's and N's exps and the target's
    gradient entry, each before the division by B; else None.
    """
    log_alpha = _log_or_neg_inf(alpha)
    log_beta = _log_or_neg_inf(beta)
    with np.errstate(divide="ignore"):
        lse_p = max_p + np.log(sum_p)
        lse_n = max_n + np.log(sum_n)

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
        return losses, terms, None

    # With total = e^loss: d(e^a)/dz_c = alpha e^(z_c - z_t) off the target,
    # and d(e^b)/dz_c = beta e^(z_c - lse_s) on N but -e^(b + z_c - lse_s) on
    # S.  Both are divided by total, so every exponent below is <= 0 in exact
    # arithmetic; past |z| ~ 1e19 rounding can push one far above 0, so each
    # is clamped at 0 before its exp
    log_a = log_alpha - z_t - losses
    log_b = term_b - losses - lse_s
    coef_p = np.exp(np.minimum(log_a + max_p, 0.0)) - np.exp(np.minimum(log_b + max_p, 0.0))
    coef_n = np.exp(np.minimum(log_a + max_n, 0.0)) + np.exp(np.minimum(log_beta - lse_s - losses + max_n, 0.0))
    return losses, terms, (coef_p, coef_n, -np.exp(term_a - losses) - np.exp(log_b + z_t))


def loss_from_logits(z, target: int, q, params: LossParams) -> LossBreakdown:
    """Stable logit-space evaluation of one row; returns the full term breakdown.

    The plausible set is column ``target`` of ``q``.  Agrees with
    :func:`loss_from_probs` on softmax(z) to ~1e-12 relative for moderate
    logits and stays finite for any finite logit magnitude.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("logits must be a 1-D array")
    Z, at_t, masks = _validate_batch(z[None, :], [target], q)
    _, _, terms = _kernel(Z, masks, at_t, params.alpha, params.beta, want_grad=False)
    return LossBreakdown(constant_term=0.0, **{name: float(v[0]) for name, v in terms.items()})


def sets_from_q(q: np.ndarray, targets) -> np.ndarray:
    """Per-sample membership masks: column ``t`` of Q with the target forced in.

    Returns a (B, C) boolean matrix; row b is the plausible set for
    ``targets[b]``.
    """
    q = np.asarray(q, dtype=bool)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    targets = np.asarray(targets, dtype=int)
    if targets.ndim != 1:
        raise ValueError("targets must be 1-D")
    return _gather_sets(q, targets)[1]


def _gather_sets(q: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each target's row-major flat index and the masks of :func:`sets_from_q`,
    on a square boolean Q and 1-D int targets, which it range-checks."""
    if targets.size and (targets.min() < 0 or targets.max() >= len(q)):
        raise ValueError(f"targets out of range [0, {len(q)})")
    # fancy indexing copies only the B selected columns; they are contiguous
    # rows of q.T when Q is in Fortran order
    masks = q.T[targets]
    # after the range check, which a (B, 0) batch fails; a 0 x 0 Q needs step 1
    at_t = np.arange(0, masks.size, len(q) or 1) + targets
    masks.put(at_t, True)
    return at_t, masks


def _validate_batch(Z, targets, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked float64 logits, each target's row-major flat index, the set masks."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("Z must be a (batch, classes) array")
    if Z.shape[0] == 0:
        raise ValueError("empty batch")
    if not np.isfinite(Z).all():
        raise ValueError("logits must be finite")
    targets = np.asarray(targets, dtype=int)
    if targets.shape != (Z.shape[0],):
        raise ValueError("targets must have one entry per batch row")
    q = np.asarray(q, dtype=bool)
    if q.shape != (Z.shape[1], Z.shape[1]):
        raise ValueError(f"Q has shape {q.shape} but the logits have {Z.shape[1]} classes")
    if Z.shape[1] == 1:
        warnings.warn(
            "single-class input: both margin terms vanish and the loss is 0",
            RuntimeWarning,
            stacklevel=3,
        )
    return (Z, *_gather_sets(q, targets))


def _mean(losses: np.ndarray) -> float:
    """The sum of a batch's losses over B, or the sum of their quotients when
    that sum overflows, so a mean of finite losses is finite."""
    B = len(losses)
    mean = float(np.add.reduce(losses)) / B
    return mean if math.isfinite(mean) else float(np.add.reduce(losses / B))


def batch_loss(Z, targets, q, params: LossParams) -> float:
    """Mean loss of a nonempty batch whose per-sample sets are read from the columns of Q."""
    Z, at_t, masks = _validate_batch(Z, targets, q)
    losses, _, _ = _kernel(Z, masks, at_t, params.alpha, params.beta, want_grad=False)
    return _mean(losses)


# bytes of logits per kernel block in batch_loss_and_grad
_GRAD_BLOCK_BYTES = 500_000


def batch_loss_and_grad(Z, targets, q, params: LossParams) -> tuple[float, np.ndarray]:
    """Mean loss of a nonempty batch plus its (B, C) gradient w.r.t. Z: row b is sample b's gradient over B.

    A batch of ``2 * _GRAD_BLOCK_BYTES`` or more of logits is taken in equal
    row blocks, each building its gradient in its rows of the result; if it
    has two or more classes and each row an empty P or N, with one max, exp
    sum and coefficient per row (:func:`_single_cell_exps`) and the kernel's
    bits.  The mean is finite whenever every loss is.
    """
    Z, at_t, masks = _validate_batch(Z, targets, q)
    B, C = Z.shape
    blocks = B * C * 8 // _GRAD_BLOCK_BYTES
    if blocks < 2:
        losses, grads, _ = _kernel(Z, masks, at_t, params.alpha, params.beta, want_grad=True)
        grads /= B
        return _mean(losses), grads
    height = -(-B // blocks)
    row_blocks = [slice(lo, lo + height) for lo in range(0, B, height)]
    grads = np.empty((B, C))
    full = _full_rows(masks)
    if full is None:
        losses = np.empty(B)
    else:
        losses, coef, at_target = _single_cell_exps(Z, full, at_t, params, grads, row_blocks)
    # x * (1 / B) rounds the same real number as x / B when B is a power of two, and is cheaper
    scale, by = (np.multiply, 1.0 / B) if B & (B - 1) == 0 else (np.divide, B)
    for rows in row_blocks:
        block, at = grads[rows], at_t[rows] - rows.start * C
        if full is None:
            losses[rows], _, _ = _kernel(Z[rows], masks[rows], at, params.alpha, params.beta, True, block)
        else:
            block *= coef[rows, None]
            block.put(at, at_target[rows])
        scale(block, by, out=block)
    return _mean(losses), grads


def _full_rows(masks: np.ndarray) -> np.ndarray | None:
    """Which rows hold all C classes (N empty), if every other row holds its
    target alone (P empty) and C >= 2; else None."""
    B, C = masks.shape
    # each row holds 1 to C classes, so the count is B plus C - 1 per full row
    # iff every other row holds 1.  Row 0 alone rules out most other batches,
    # and the count's remainder by C - 1 most of the rest before the row
    # reduction: s sinks of column noise at eta <= 0.2, which hold C - 1
    # classes each, leave -s
    if C < 2 or np.count_nonzero(masks[0]) not in (1, C):
        return None
    extra = np.count_nonzero(masks) - B
    if extra % (C - 1):
        return None
    full = masks.all(axis=1)
    return full if extra == (C - 1) * np.count_nonzero(full) else None


def _single_cell_exps(Z, full, at_t, params: LossParams, grads, row_blocks):
    """Per-sample losses, gradient coefficients and target entries of a batch
    whose rows have one non-target cell each, P on ``full`` rows and N on the
    others, with each block's shifted exps made in its rows of ``grads``.

    The values are :func:`_kernel`'s: its max of the one cell is over the
    same entries, and its 0/1 mask differs from ``ones`` only at the target,
    where the exp is 0.  einsum sums a row against the 1-D ``ones`` with the
    loop it takes for a row of the kernel's 2-D mask, both operands
    contiguous; a broadcast (stride-0) ``ones`` or ``e.sum(axis=1)`` would
    sum in another order.
    """
    B, C = Z.shape
    cell_max, cell_sum = np.empty(B), np.empty(B)
    ones = np.ones(C)
    for rows in row_blocks:
        e, z, at = grads[rows], Z[rows], at_t[rows] - rows.start * C
        np.copyto(e, z)
        e.put(at, -np.inf)
        cell_max[rows] = _row_max(e)
        # the targets stay -inf
        e -= cell_max[rows, None]
        np.exp(e, out=e)
        cell_sum[rows] = np.einsum("ij,j->i", e, ones)
    max_p, max_n = np.where(full, cell_max, -np.inf), np.where(full, -np.inf, cell_max)
    sum_p, sum_n = np.where(full, cell_sum, 0.0), np.where(full, 0.0, cell_sum)
    losses, _, (coef_p, coef_n, at_target) = _pool(Z.take(at_t), max_p, sum_p, max_n, sum_n, params.alpha, params.beta, True)
    return losses, np.where(full, coef_p, coef_n), at_target
