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
within a bounded peak of memory.  When every row has an empty P or N it
takes a weighted cross-entropy step instead, which must give the bits of
its own one pass, agree with the kernel at moderate logits, match an
80-digit oracle at every logit scale and give no NaN for finite logits.
One property checks every path against one pass over drawn shapes, Qs,
scales, layouts, block counts and ufunc buffer sizes.  A batch mean of
either loss whose sum overflows must stay finite.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmargin import (
    LossParams,
    NoiseSpec,
    batch_loss_and_grad,
    build_transition,
    default_column_sinks,
    loss,
    q_from_transition,
    q_mil,
    q_ordinal,
    sets_from_q,
    training,
)
from dualmargin.loss import _kernel
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

    # a band Q takes the kernel in blocks, column noise the weighted cross-entropy step
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
        # and one block's work array; one pass holds three (B, C) float arrays
        assert peak <= grad.nbytes + (5 << 19)


def kernel_pass(Z, targets, q, params):
    """The mean loss and the gradient over B of one kernel pass over the C-ordered
    batch (the kernel as imported, whatever a test puts in its place)."""
    at_t, masks = loss._gather_sets(q, targets)
    losses, grads, _ = _kernel(np.ascontiguousarray(Z), masks, at_t, params.alpha, params.beta, want_grad=True)
    return loss._mean(losses), grads / len(Z)


def assert_near_the_kernel(got_loss, got_grad, Z, targets, q, params):
    """A weighted cross-entropy step agrees with the kernel within a few ulps of
    the mean loss and 1e-13 of the gradient at logits up to about 1e3."""
    want_loss, want_grad = kernel_pass(Z, targets, q, params)
    assert abs(got_loss - want_loss) <= 1e-15 * want_loss
    assert np.abs(got_grad - want_grad).max() <= 1e-13


class TestSingleCellGradient:
    """Batches whose every row has an empty P or an empty N take a weighted
    cross-entropy step in place of the kernel.  On any layout and in any row
    blocks it gives the bits of its one pass over the C-ordered batch."""

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
    def test_gives_the_bits_of_one_c_ordered_pass(self, monkeypatch, layout, eta, C, scale):
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
                want_loss, want_grad = batch_loss_and_grad(Z, targets, q, params)
                if scale <= 1e3:
                    assert_near_the_kernel(want_loss, want_grad, Z, targets, q, params)
                # one block, 98 of 1 row, 14 of 7 and 2 of 49
                for height in [98, 1, 7, 49]:
                    monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * height * C)
                    got_loss, got_grad = batch_loss_and_grad(logits, targets, q, params)
                    assert calls == [], (kind, weights, height)
                    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes(), (kind, weights, height)
                    assert got_grad.tobytes() == want_grad.tobytes(), (kind, weights, height)

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_a_real_wide_batch_gives_the_bits_of_one_block(self, monkeypatch, eta):
        B, C = 128, 1000
        rng = np.random.default_rng(1)
        Z = rng.normal(scale=3.0, size=(B, C))
        targets = rng.integers(0, C, size=B)
        targets[:2] = default_column_sinks(C)
        q = column_q(C, eta)
        params = LossParams(0.1, 10.0)
        calls = self.spying(monkeypatch)
        # 1 MB of logits: two blocks of 64 rows
        got_loss, got_grad = batch_loss_and_grad(Z, targets, q, params)
        monkeypatch.setattr(loss, "_GRAD_BLOCK_BYTES", 8 * B * C)
        want_loss, want_grad = batch_loss_and_grad(Z, targets, q, params)
        assert calls == []
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()
        assert_near_the_kernel(got_loss, got_grad, Z, targets, q, params)

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

    @pytest.mark.parametrize("q_kind", ["mil", "column"])
    @pytest.mark.parametrize("weights", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (0.3, 5.0)])
    def test_logits_at_the_float_range_give_no_nan(self, q_kind, weights):
        # z_t - M overflows to -inf where the target is the max and to +inf
        # where it is the min; the loss is then 0 or +inf (0 where w = 0)
        C = 2 if q_kind == "mil" else 10
        q = q_mil() if q_kind == "mil" else column_q(C, 0.6)
        params = LossParams(*weights, allow_degenerate=True)
        for top in range(C):
            Z = np.full((1, C), -1e308)
            Z[0, top] = 1e308
            for target in range(C):
                full = bool(q[:, target].all())
                w = weights[0] + (0.0 if full else weights[1])
                # invalid raises: no operation may make a NaN
                with np.errstate(all="raise", over="ignore", under="ignore"):
                    got_loss, got_grad = batch_loss_and_grad(Z, [target], q, params)
                assert got_loss == (np.inf if w and target != top else 0.0), (top, target)
                assert np.isfinite(got_grad).all(), (top, target)
                want_grad = np.zeros((1, C))
                if got_loss:
                    # the softmax of the other classes, whose top takes it all
                    want_grad[0, top], want_grad[0, target] = 1.0, -1.0
                assert np.array_equal(got_grad, want_grad), (top, target)

def drawn_q(kind, C, rng):
    """A (C, C) Q of ``kind``: a band, column noise at an eta, block
    superclass noise, the MIL Q (C = 2) or a random density."""
    if kind == "band":
        return q_ordinal(C, rng.integers(0, C))
    if kind.startswith("column"):
        return column_q(C, float(kind.split("-")[1]))
    if kind == "block":
        group = rng.choice([g for g in range(2, C + 1) if C % g == 0])
        return q_from_transition(build_transition(NoiseSpec(topology="block_superclass", eta=0.6, group_size=int(group)), C))
    if kind == "mil":
        return q_mil()
    return rng.random((C, C)) < rng.choice([0.0, 0.2, 0.5, 1.0])


class TestDifferentialOracle:
    """Every path of ``batch_loss_and_grad`` (one kernel pass, row blocks, the
    weighted cross-entropy step), on any layout and under a ufunc buffer of
    the default size or below two rows, gives the bits of one pass over the
    C-ordered batch: of the kernel, its gradient divided by B and its mean
    by ``_mean``, unless every row has an empty P or N; of the weighted
    cross-entropy step if so, which agrees with the kernel's within a few
    ulps of the loss and 1e-13 of the gradient at logits up to about 1e3."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["band", "column-0.1", "column-0.6", "column-1.0", "block", "mil", "random"]),
        C=st.integers(2, 64),
        B=st.integers(1, 300),
        blocks=st.integers(1, 7),
        exponent=st.floats(-3.0, 300.0),
        layout=st.sampled_from(["c", "fortran", "column-strided", "row-strided"]),
        weights=st.sampled_from([(0.3, 5.0), (0.0, 1.0), (1.0, 0.0), (0.1, 10.0)]),
        no_sinks=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_path_gives_the_bits_of_one_c_ordered_pass(self, kind, C, B, blocks, exponent, layout, weights, no_sinks, seed):
        C = 2 if kind == "mil" else C
        rng = np.random.default_rng(seed)
        q = drawn_q(kind, C, rng)
        Z = rng.normal(scale=10.0**exponent, size=(B, C))
        Z[:, 0] = 0.0
        targets = rng.integers(0, C, size=B)
        if kind.startswith("column") and no_sinks and C > 2:
            # every row's set is its target alone; a sink's holds at least C - 1 classes
            sinks = default_column_sinks(C)
            targets[np.isin(targets, sinks)] = min({0, 1, 2} - set(sinks))
        params = LossParams(*weights)
        sizes = np.count_nonzero(sets_from_q(q, targets), axis=1)
        single_cell = bool(np.all((sizes == 1) | (sizes == C)))
        if single_cell:
            # at most 300 x 64 logits, one block
            want_loss, want_grad = batch_loss_and_grad(Z, targets, q, params)
            if exponent <= 3.0:
                assert_near_the_kernel(want_loss, want_grad, Z, targets, q, params)
        else:
            want_loss, want_grad = kernel_pass(Z, targets, q, params)
        want_loss, want_grad = np.float64(want_loss).tobytes(), want_grad.tobytes()

        # at most B blocks, so B * C * 8 // block_bytes is exactly their count
        block_bytes = B * C * 8 // min(blocks, B)
        logits = Z if layout == "c" else layouts(Z)[layout]
        # the largest size below two rows that numpy 1 accepts (a multiple of 16)
        for bufsize in [np.getbufsize(), max(16, 16 * ((2 * C - 1) // 16))]:
            with mock.patch.object(loss, "_GRAD_BLOCK_BYTES", block_bytes), mock.patch.object(
                loss, "_weighted_ce", wraps=loss._weighted_ce
            ) as spy, np.errstate():
                old = np.setbufsize(bufsize)
                try:
                    got_loss, got_grad = batch_loss_and_grad(logits, targets, q, params)
                finally:
                    np.setbufsize(old)
            assert spy.call_count == single_cell, bufsize
            assert np.float64(got_loss).tobytes() == want_loss, bufsize
            assert got_grad.tobytes() == want_grad, bufsize


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


def dm_grad_oracle(z, t, plausible, alpha, beta):
    """The loss and its analytic gradient from the logits, at the working precision."""
    e = [mp.exp(mp.mpf(float(v))) for v in z]
    rest = mp.fsum(e[c] for c in range(len(z)) if c != t)
    in_s = mp.fsum(e[c] for c in plausible)
    out_s = mp.fsum(e[c] for c in range(len(z)) if c not in plausible)
    a, b = alpha * rest / e[t], beta * out_s / in_s
    total = 1 + a + b
    # d a / d z_c is a e_c / rest off the target and -a at it; d b / d z_c is
    # b e_c / out_s on N and -b e_c / in_s on S
    grad = [
        ((-a if c == t else alpha * e[c] / e[t]) + (-b * e[c] / in_s if c in plausible else beta * e[c] / in_s)) / total
        for c in range(len(z))
    ]
    return mp.log(total), grad


class TestWeightedCrossEntropyOracle:
    @pytest.mark.parametrize("q_kind", ["column", "mil"])
    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 1e4, 1e8, 1e12, 1e16, 1e100, 1e300])
    def test_matches_an_80_digit_oracle_at_every_scale(self, q_kind, scale):
        # the kernel's gradient is off by 5e-12 at scale 1e4 and by 1 from 1e16
        B, C = (16, 10) if q_kind == "column" else (16, 2)
        q = column_q(C, 0.6) if q_kind == "column" else q_mil()
        rng = np.random.default_rng(int(np.log10(scale)))
        Z = rng.normal(scale=scale, size=(B, C))
        targets = rng.integers(0, C, size=B)
        # two rows whose set is every class: the sinks, or the MIL positive
        targets[:2] = default_column_sinks(C) if q_kind == "column" else (1, 1)
        masks = sets_from_q(q, targets)
        for alpha, beta in [(0.1, 10.0), (1.0, 0.0), (0.01, 100.0)]:
            got_loss, got_grad = batch_loss_and_grad(Z, targets, q, LossParams(alpha, beta))
            with mp.workdps(80):
                rows = [dm_grad_oracle(Z[b], targets[b], set(np.flatnonzero(masks[b])), alpha, beta) for b in range(B)]
                want_loss = mp.fsum(row_loss for row_loss, _ in rows) / B
                # a mean below the float range reads 0
                assert abs(got_loss - want_loss) <= 1e-14 * max(want_loss, mp.mpf(1e-300)), (alpha, beta)
                for b, (_, want_grad) in enumerate(rows):
                    for c in range(C):
                        assert abs(B * got_grad[b, c] - want_grad[c]) <= 1e-14, (alpha, beta, b, c)
