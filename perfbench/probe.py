"""Fixed-shape kernel probe, run as its own child process.

Usage::

    python3 perfbench/probe.py RECORD_JSON SEED BUDGET_S

Times the loss forward (``batch_loss``), loss plus gradient
(``batch_loss_and_grad``) and ``sets_from_q`` at the shapes
(B, C) in SHAPES, and ``corrupt_labels`` on 10^5 labels.  Each figure is
the median per-call time over repeated calls, repeated for BUDGET_S
seconds and at least MIN_REPS times.  The ratio ``loss.dm_over_ce`` has as
its base the plain-numpy cross-entropy loss and gradient below, which no
library change moves.  Inputs derive from SEED.

Before timing, the dual-margin loss at alpha=1, beta=0 is checked against
that cross-entropy; a mismatch exits with code 1.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualmargin.loss import LossParams, batch_loss, batch_loss_and_grad, sets_from_q  # noqa: E402
from dualmargin.noise import NoiseSpec, build_transition, corrupt_labels  # noqa: E402
from dualmargin.plausibility import q_from_transition  # noqa: E402

SHAPES = ((128, 10), (128, 1000), (4096, 100))
CORRUPT_LABELS = 100_000
MIN_REPS = 3
DM_PARAMS = LossParams(alpha=0.1, beta=10.0)


def ce_loss_and_grad(Z, targets):
    """Mean cross-entropy and its gradient, written against plain numpy."""
    B = Z.shape[0]
    rows = np.arange(B)
    shifted = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    loss = float(np.mean(np.log(total) - shifted[rows, targets]))
    grad = e / total[:, None]
    grad[rows, targets] -= 1.0
    return loss, grad / B


def median_call_us(fn, budget_s):
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def column_q(C):
    transition = build_transition(NoiseSpec(topology="column", eta=0.6), C)
    return transition, q_from_transition(transition)


def main(argv):
    record_path, seed, budget_s = Path(argv[0]), int(argv[1]), float(argv[2])
    rng = np.random.default_rng(seed)
    metrics = {}
    for B, C in SHAPES:
        Z = rng.normal(scale=3.0, size=(B, C))
        targets = rng.integers(0, C, size=B)
        _, q = column_q(C)
        ce_loss, ce_grad = ce_loss_and_grad(Z, targets)
        dm_loss, dm_grad = batch_loss_and_grad(Z, targets, q, LossParams(alpha=1.0, beta=0.0))
        if not (np.isclose(dm_loss, ce_loss, rtol=1e-9) and np.allclose(dm_grad, ce_grad, rtol=1e-9, atol=1e-15)):
            print(f"probe: dual-margin at alpha=1, beta=0 differs from cross-entropy at {B}x{C}", file=sys.stderr)
            return 1
        shape = f"{B}x{C}"
        metrics[f"loss.fwd_us.{shape}"] = median_call_us(lambda: batch_loss(Z, targets, q, DM_PARAMS), budget_s)
        fwd_grad = median_call_us(lambda: batch_loss_and_grad(Z, targets, q, DM_PARAMS), budget_s)
        metrics[f"loss.fwd_grad_us.{shape}"] = fwd_grad
        metrics[f"loss.dm_over_ce.{shape}"] = fwd_grad / median_call_us(lambda: ce_loss_and_grad(Z, targets), budget_s)
        metrics[f"plausibility.sets_from_q_us.{shape}"] = median_call_us(lambda: sets_from_q(q, targets), budget_s)

    transition, _ = column_q(10)
    clean = rng.integers(0, 10, size=CORRUPT_LABELS)
    metrics["noise.corrupt_us.1e5"] = median_call_us(lambda: corrupt_labels(clean, transition, seed), budget_s)
    record_path.write_text(json.dumps(metrics), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
