"""Precision tests for the two training kernels at their edges.

The cross-entropy step (``training._ce_loss_and_grad``) is checked against
a 50-digit log-softmax oracle and at extreme logits; the dual-margin
kernel against 50-digit central finite differences on a row whose
implausible cell sits so far below its plausible cell that the two cell
coefficients differ by more than the float64 precision.  Both kernels
read and write each row's target entry through its index into the
flattened logits, which must give the same bits on any memory layout,
and take their row maxima class-major on narrow rows, which must give
the bits of the row-wise maxima.  The dual-margin gradient of a wide
batch is taken in row blocks, which must give the bits of one pass, and
within a bounded peak of memory; when every row has an empty P or N, on a
single-cell path that must give the kernel's bits.  A batch mean of
either loss whose sum overflows must stay finite.
"""

import tracemalloc

import numpy as np
import pytest

from dualmargin import (
    LossParams,
    NoiseSpec,
    batch_loss_and_grad,
    build_transition,
    default_column_sinks,
    loss,
    q_from_transition,
    q_mil,
    sets_from_q,
    training,
)
from dualmargin.training import _ce_loss_and_grad


def layouts(Z):
    """Copies of Z in Fortran order and as strided views of larger arrays."""
    B, C = Z.shape
    wide, tall = np.zeros((B, 2 * C)), np.zeros((2 * B, C))
    wide[:, ::2] = Z
    tall[::2] = Z
    return {"fortran": np.asfortranarray(Z), "column-strided": wide[:, ::2], "row-strided": tall[::2]}


def column_q(C, eta):
    """Q of column noise at rate ``eta`` over C classes, as noise-recovery builds it."""
    return q_from_transition(build_transition(NoiseSpec(topology="column", eta=eta), C))


class TestLogitLayout:
    @pytest.mark.parametrize("layout", ["fortran", "column-strided", "row-strided"])
    @pytest.mark.parametrize("C", [7, 40])
    def test_every_layout_gives_the_c_ordered_bits(self, layout, C):
        # from 8 columns on numpy sums the rows of a Fortran-ordered array in
        # another order, so the CE step copies other layouts to C order
        rng = np.random.default_rng(C)
        Z = rng.normal(scale=4.0, size=(33, C))
        targets = rng.integers(0, C, size=33)
        q = rng.random((C, C)) < 0.4
        steps = {
            "dm": lambda z: batch_loss_and_grad(z, targets, q, LossParams(0.3, 5.0)),
            "ce": lambda z: _ce_loss_and_grad(z, targets),
        }
        other = layouts(Z)[layout]
        assert not other.flags.c_contiguous
        for name, step in steps.items():
            want_loss, want_grad = step(Z)
            got_loss, got_grad = step(other)
            assert got_loss == want_loss, name
            np.testing.assert_array_equal(got_grad, want_grad, err_msg=name)


class TestRowMaxWidthThreshold:
    @pytest.mark.parametrize("C", [2, 8, 16, 17])
    @pytest.mark.parametrize("scale", [1.0, 40.0, 800.0])
    def test_class_major_maxima_give_the_row_wise_bits(self, monkeypatch, C, scale):
        rng = np.random.default_rng(C)
        Z = rng.normal(scale=scale, size=(50, C))
        Z[:, 0], Z[:, 1] = 0.0, -0.0
        Z[3] = 0.0
        Z[3, 1] = -0.0  # a row of +0 but one -0
        targets = rng.integers(0, C, size=50)
        q = rng.random((C, C)) < 0.3
        q[:, 0] = False  # target 0: P is empty
        q[:, 1] = True  # target 1: N is empty
        targets[:4] = [0, 1, 0, 1]

        def steps():
            return [
                batch_loss_and_grad(Z, targets, q, LossParams(0.3, 5.0)),
                batch_loss_and_grad(Z, targets, q, LossParams(0.0, 1.0)),
                _ce_loss_and_grad(Z, targets),
            ]

        class_major = steps()
        monkeypatch.setattr(loss, "_row_max", lambda a: a.max(axis=1))
        monkeypatch.setattr(training, "_row_max", loss._row_max)
        for (want_loss, want_grad), (got_loss, got_grad) in zip(class_major, steps()):
            assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
            assert got_grad.tobytes() == want_grad.tobytes()

    def test_a_batch_of_no_classes_raises_value_error(self):
        with pytest.raises(ValueError, match="out of range"):
            batch_loss_and_grad(np.zeros((2, 0)), [0, 0], np.zeros((0, 0), dtype=bool), LossParams(1.0, 1.0))

    def test_no_targets_of_no_classes_give_an_empty_set_matrix(self):
        assert sets_from_q(np.zeros((0, 0), dtype=bool), []).shape == (0, 0)


class TestGradientRowBlocks:
    @pytest.mark.parametrize("layout", ["c", "fortran", "column-strided", "row-strided"])
    @pytest.mark.parametrize("C", [7, 17, 40])
    @pytest.mark.parametrize("scale", [1.0, 40.0, 800.0, 1e300])
    # blocks divide by 98 but multiply by 1 / 64, which must give the quotient's bits
    @pytest.mark.parametrize("B,heights", [(98, [1, 7, 49]), (64, [1, 8, 32])])
    def test_blocks_give_the_bits_of_one_pass(self, monkeypatch, layout, C, scale, B, heights):
        rng = np.random.default_rng(C)
        Z = rng.normal(scale=scale, size=(B, C))
        Z[:, 0], Z[:, 1] = 0.0, -0.0
        targets = rng.integers(0, C, size=B)
        q = rng.random((C, C)) < 0.3
        q[:, 0] = False  # target 0: P is empty
        q[:, 1] = True  # target 1: N is empty
        targets[:4] = [0, 1, 0, 1]
        targets[-2:] = [1, 0]
        logits = Z if layout == "c" else layouts(Z)[layout]
        seen, kernel = [], loss._kernel

        def recording(block, *args, **kwargs):
            seen.append(len(block))
            return kernel(block, *args, **kwargs)

        monkeypatch.setattr(loss, "_kernel", recording)
        for weights in [(0.3, 5.0), (0.0, 1.0), (1.0, 0.0)]:
            params = LossParams(*weights)
            monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * B * C)
            want_loss, want_grad = batch_loss_and_grad(logits, targets, q, params)
            for height in heights:
                monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * height * C)
                seen.clear()
                got_loss, got_grad = batch_loss_and_grad(logits, targets, q, params)
                assert seen == [height] * (B // height)
                assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes(), (weights, height)
                assert got_grad.tobytes() == want_grad.tobytes(), (weights, height)

    # a band Q takes the kernel in blocks, column noise the single-cell path
    @pytest.mark.parametrize("q_kind", ["band", "column"])
    def test_peak_memory_is_the_gradient_and_a_block(self, q_kind):
        B, C = 128, 4000
        rng = np.random.default_rng(0)
        Z = rng.normal(scale=3.0, size=(B, C))
        targets = rng.integers(0, C, size=B)
        q = np.eye(C, dtype=bool) | np.eye(C, k=1, dtype=bool) if q_kind == "band" else column_q(C, 0.6)
        tracemalloc.start()
        try:
            _, grad = batch_loss_and_grad(Z, targets, q, LossParams(0.3, 5.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (B, C) gradient, which each block builds its exps in, the masks
        # and one block's work array or ones; one pass holds three (B, C) float arrays
        assert peak <= grad.nbytes + (5 << 19)


class TestSingleCellGradient:
    """Wide batches whose every row has an empty P or an empty N take one max,
    one exp sum and one coefficient per row, with the kernel's bits."""

    @staticmethod
    def batches(eta, C):
        """Q of column noise at ``eta`` (the MIL Q if None) and target vectors
        of 98 rows: all P-empty, all N-empty, and mixed."""
        if eta is None:
            q, sinks = q_mil(), [1]
        else:
            q, sinks = column_q(C, eta), list(default_column_sinks(C))
        others = [c for c in range(C) if c not in sinks]
        rng = np.random.default_rng(C)
        return q, {
            "p-empty": rng.choice(others, size=98),
            "n-empty": rng.choice(sinks, size=98),
            "mixed": rng.integers(0, C, size=98),
        }

    @staticmethod
    def spying(monkeypatch):
        calls = []
        kernel = loss._kernel

        def recording(*args, **kwargs):
            calls.append(len(args[0]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(loss, "_kernel", recording)
        return calls

    @pytest.mark.parametrize("layout", ["c", "fortran", "column-strided", "row-strided"])
    @pytest.mark.parametrize("eta,C", [(0.6, 17), (1.0, 17), (0.6, 40), (1.0, 40), (None, 2)])
    @pytest.mark.parametrize("scale", [1.0, 40.0, 800.0, 1e300])
    def test_gives_the_bits_of_the_kernel(self, monkeypatch, layout, eta, C, scale):
        rng = np.random.default_rng(C)
        Z = rng.normal(scale=scale, size=(98, C))
        Z[:, 0], Z[:, 1] = 0.0, -0.0
        logits = Z if layout == "c" else layouts(Z)[layout]
        q, batches = self.batches(eta, C)
        calls = self.spying(monkeypatch)
        for kind, targets in batches.items():
            for weights in [(0.3, 5.0), (0.0, 1.0), (1.0, 0.0)]:
                params = LossParams(*weights)
                monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * 98 * C)
                want_loss, want_grad = batch_loss_and_grad(logits, targets, q, params)
                assert calls == [98]
                # 14 blocks of 7 rows, and 2 of 49
                for height in [7, 49]:
                    monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * height * C)
                    calls.clear()
                    got_loss, got_grad = batch_loss_and_grad(logits, targets, q, params)
                    assert calls == [], (kind, weights, height)
                    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes(), (kind, weights, height)
                    assert got_grad.tobytes() == want_grad.tobytes(), (kind, weights, height)

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_a_real_wide_batch_gives_the_bits_of_the_kernel(self, monkeypatch, eta):
        B, C = 128, 1000
        rng = np.random.default_rng(1)
        Z = rng.normal(scale=3.0, size=(B, C))
        targets = rng.integers(0, C, size=B)
        targets[:2] = default_column_sinks(C)
        q = column_q(C, eta)
        calls = self.spying(monkeypatch)
        got_loss, got_grad = batch_loss_and_grad(Z, targets, q, LossParams(0.1, 10.0))
        assert calls == []
        monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * B * C)
        want_loss, want_grad = batch_loss_and_grad(Z, targets, q, LossParams(0.1, 10.0))
        assert calls == [B]
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("general", ["column-0.1-sink", "column-0.1-39-sinks", "one-partial-column"])
    def test_one_general_row_sends_the_batch_to_the_kernel(self, monkeypatch, general):
        C = 40
        q, batches = self.batches(0.6, C)
        targets = batches["mixed"].copy()
        if general == "column-0.1-sink":
            # at eta 0.1 a sink's column holds every class but the other sink
            q = column_q(C, 0.1)
            targets[:97] = batches["p-empty"][:97]
            targets[97] = default_column_sinks(C)[0]
        elif general == "column-0.1-39-sinks":
            # 39 sinks hold 39 * 38 classes besides their targets, a multiple
            # of C - 1, as if 38 rows held all C
            q = column_q(C, 0.1)
            targets[:59] = batches["p-empty"][:59]
            targets[59:] = batches["n-empty"][:39]
        else:
            q = q.copy()
            targets[50] = batches["p-empty"][0]
            q[:5, targets[50]] = True
        monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * 49 * C)
        calls = self.spying(monkeypatch)
        batch_loss_and_grad(np.random.default_rng(0).normal(size=(98, C)), targets, q, LossParams(0.3, 5.0))
        assert calls == [49, 49]


class TestFiniteBatchMean:
    def test_losses_whose_sum_overflows_have_a_finite_mean(self):
        Z = np.tile([1e307, -1e307, 0.0], (16, 1))
        targets = np.ones(16, dtype=int)
        q = np.eye(3, dtype=bool)
        params = LossParams(0.3, 5.0)
        row = loss.loss_from_logits(Z[0], 1, q, params).loss
        assert np.finfo(float).max / 16 < row < np.inf  # 16 rows sum past the float range
        # the plain sum overflows, as train, which ignores overflow, sees it
        with np.errstate(all="raise", over="ignore", under="ignore"):
            mean, grad = batch_loss_and_grad(Z, targets, q, params)
            assert mean == row == loss.batch_loss(Z, targets, q, params)
        assert np.isfinite(grad).all()

    def test_cross_entropy_losses_whose_sum_overflows_have_a_finite_mean(self):
        Z = np.tile([1e307, -1e307, 0.0], (16, 1))
        targets = np.ones(16, dtype=int)
        row, _ = _ce_loss_and_grad(Z[:1], targets[:1])
        assert np.finfo(float).max / 16 < row < np.inf
        with np.errstate(all="raise", over="ignore", under="ignore"):
            mean, grad = _ce_loss_and_grad(Z, targets)
        assert mean == row
        assert np.isfinite(grad).all()


mp = pytest.importorskip("mpmath")


def ce_oracle(logits, targets):
    """Mean -log softmax(z)_t and (softmax - onehot) / B at 50 digits."""
    with mp.workdps(50):
        B = len(targets)
        losses, grads = [], []
        for z, t in zip(logits, targets):
            z = [mp.mpf(float(v)) for v in z]
            total = mp.fsum(mp.exp(v) for v in z)
            losses.append(mp.log(total) - z[t])
            grads.append([(mp.exp(v) / total - (1 if c == t else 0)) / B for c, v in enumerate(z)])
        return mp.fsum(losses) / B, grads


class TestCrossEntropyStep:
    def test_matches_a_50_digit_log_softmax_oracle(self):
        # moderate logits keep p_t away from 1, where p_t - 1 cancels in any form
        rng = np.random.default_rng(7)
        logits = rng.normal(scale=2.0, size=(6, 9))
        targets = rng.integers(0, 9, size=6)
        loss, grad = _ce_loss_and_grad(logits, targets)
        want_loss, want_grad = ce_oracle(logits, targets)
        assert abs(loss - want_loss) <= 1e-14 * abs(want_loss)
        for b in range(6):
            for c in range(9):
                assert abs(grad[b, c] - want_grad[b][c]) <= 1e-14 * abs(want_grad[b][c]), (b, c)

    def test_does_not_modify_the_logits(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0]])
        before = logits.copy()
        _ce_loss_and_grad(logits, np.array([0, 2]))
        np.testing.assert_array_equal(logits, before)

    @pytest.mark.parametrize("scale", [1e4, -1e4])
    def test_extreme_logits_raise_no_floating_point_error(self, scale):
        # exps far below a row's max must round to 0, so underflow is allowed
        rng = np.random.default_rng(3)
        logits = scale * rng.normal(size=(5, 12))
        targets = rng.integers(0, 12, size=5)
        with np.errstate(all="raise", under="ignore"):
            loss, grad = _ce_loss_and_grad(logits, targets)
        assert np.isfinite(loss) and loss >= 0.0
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)


def dm_loss_oracle(z, t, plausible, alpha, beta):
    """log(1 + alpha (1 - p_t) / p_t + beta (1 - p_S) / p_S) from the logits."""
    e = [mp.exp(v) for v in z]
    rest = mp.fsum(e[c] for c in range(len(z)) if c != t)
    in_s = mp.fsum(e[c] for c in range(len(z)) if c in plausible)
    out_s = mp.fsum(e[c] for c in range(len(z)) if c not in plausible)
    return mp.log(1 + alpha * rest / e[t] + beta * out_s / in_s)


class TestDualMarginFarImplausibleCell:
    def test_gradient_matches_50_digit_finite_differences(self):
        # N sits 60 below P, so the N coefficient is ~1e-20 of the P one
        z = np.array([0.0, -1.0, -2.0, -60.0, -61.0, -65.0])
        t, plausible = 0, {0, 1, 2}
        alpha, beta = 0.01, 1e4
        q = np.zeros((6, 6), dtype=bool)
        q[list(plausible), t] = True
        _, grad = batch_loss_and_grad(z[None, :], np.array([t]), q, LossParams(alpha, beta))
        with mp.workdps(60):
            h = mp.mpf("1e-25")
            for c in range(6):
                up = [mp.mpf(float(v)) for v in z]
                down = list(up)
                up[c] += h
                down[c] -= h
                fd = (dm_loss_oracle(up, t, plausible, alpha, beta) - dm_loss_oracle(down, t, plausible, alpha, beta)) / (2 * h)
                assert abs(grad[0, c] - fd) <= 1e-12 * abs(fd), c
        assert np.all(grad[0, 3:] > 0.0)  # N's gradient survives next to P's
