"""Unit and property tests for the loss core.

Reference values are either closed-form constants, independent oracles
implemented here (naive summation, direct log-softmax, high-precision
arithmetic via mpmath, central finite differences), or invariants that
must hold identically.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmargin import (
    LossParams,
    batch_loss,
    batch_loss_and_grad,
    loss_from_logits,
    loss_from_probs,
    sets_from_q,
    softmax,
)
from dualmargin.loss import _gather_sets, _kernel


def pset(class_count, members, target):
    """A Q whose column ``target`` holds ``members``: that label's plausible set."""
    q = np.zeros((class_count, class_count), dtype=bool)
    q[np.asarray(list(members), dtype=int), target] = True
    return q


def row_grad(z, target, q, params):
    """The gradient of one row's loss, from a batch of one: the mean of one row is that row."""
    _, grad = batch_loss_and_grad(np.asarray(z, dtype=np.float64)[None, :], [target], q, params)
    return grad[0]


def log_softmax_oracle(z, t):
    """Independent -log softmax(z)_t, written without the loss machinery."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[t])


class TestParamsAndSets:
    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            LossParams(0.0, -0.5)

    def test_both_zero_needs_explicit_opt_in(self):
        with pytest.raises(ValueError):
            LossParams(0.0, 0.0)
        params = LossParams(0.0, 0.0, allow_degenerate=True)
        assert params.alpha == 0.0

    def test_target_forced_into_set(self):
        # column 0 of Q leaves out class 0 itself; the loss reads it as {0, 1}
        z = np.array([0.5, -1.0, 2.0])
        params = LossParams(0.3, 4.0)
        without = loss_from_logits(z, 0, pset(3, [1], 0), params)
        assert without == loss_from_logits(z, 0, pset(3, [0, 1], 0), params)
        assert loss_from_probs(softmax(z), 0, pset(3, [1], 0), params) == pytest.approx(without.loss, rel=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            loss_from_logits([0.0, 0.0], 2, np.eye(2, dtype=bool), LossParams(1.0, 0.0))

    def test_sets_from_q_forces_diagonal(self):
        q = np.zeros((3, 3), dtype=bool)
        q[0, 2] = True
        masks = sets_from_q(q, np.array([2, 1]))
        np.testing.assert_array_equal(masks[0], [True, False, True])
        np.testing.assert_array_equal(masks[1], [False, True, False])

    def test_sets_from_q_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            sets_from_q(np.eye(3, dtype=bool), np.array([3]))


class TestProbabilityForm:
    def test_ce_reduction_at_uniform_binary(self):
        got = loss_from_probs([0.5, 0.5], 0, pset(2, [0], 0), LossParams(1.0, 0.0))
        assert got == pytest.approx(np.log(2.0), abs=1e-14)

    def test_direct_substitution_uniform_four_class(self):
        got = loss_from_probs([0.25] * 4, 0, pset(4, [0, 1], 0), LossParams(1.0, 1.0))
        assert got == pytest.approx(np.log(5.0), abs=1e-14)

    def test_certain_target_gives_zero(self):
        got = loss_from_probs([1.0, 0.0, 0.0], 0, pset(3, [0, 1], 0), LossParams(2.0, 3.0))
        assert got == 0.0

    def test_zero_target_probability_is_domain_error(self):
        with pytest.raises(ValueError):
            loss_from_probs([0.0, 1.0], 0, pset(2, [0], 0), LossParams(1.0, 0.0))

    def test_invalid_simplex_rejected(self):
        with pytest.raises(ValueError):
            loss_from_probs([0.9, 0.3], 0, pset(2, [0], 0), LossParams(1.0, 0.0))


class TestLogitForm:
    def test_uniform_binary_ce_reduction(self):
        b = loss_from_logits([0.0, 0.0], 0, pset(2, [0], 0), LossParams(1.0, 0.0))
        assert b.loss == pytest.approx(np.log(2.0), abs=1e-14)

    def test_matches_high_precision_direct_form(self):
        # oracle: 50-digit evaluation of the probability-space definition
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        z = [2.0, 1.0, 0.0, -1.0]
        exps = [mp.e**v for v in z]
        total = sum(exps)
        p = [e / total for e in exps]
        p_t = p[0]
        p_s = p[0] + p[1]
        expected = mp.log(1 + mp.mpf("0.1") * (1 - p_t) / p_t + 10 * (1 - p_s) / p_s)
        got = loss_from_logits(z, 0, pset(4, [0, 1], 0), LossParams(0.1, 10.0)).loss
        assert got == pytest.approx(float(expected), abs=1e-12)

    def test_loss_far_below_eps_keeps_full_relative_accuracy(self):
        # the true loss is ~1e-16, so log(1 + x) evaluated naively would read 0
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        z = [40.0, 0.0, 0.0]
        params = LossParams(0.1, 10.0)
        exps = [mp.e ** mp.mpf(v) for v in z]
        p_t = exps[0] / sum(exps)
        expected = float(mp.log(1 + (mp.mpf("0.1") + 10) * (1 - p_t) / p_t))
        got = loss_from_logits(z, 0, pset(3, [0], 0), params).loss
        batched = batch_loss(np.array([z]), [0], np.eye(3, dtype=bool), params)
        assert 0.0 < expected < 1e-15
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert batched == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_extreme_logits_stay_finite_and_small(self):
        b = loss_from_logits([1e4, 0.0, 0.0], 0, pset(3, [0], 0), LossParams(1.0, 1.0))
        assert np.isfinite(b.loss)
        assert b.loss < 1e-6  # dominant target logit drives the loss to 0

    def test_full_set_drops_the_set_term(self):
        z = np.array([1.0, -2.0, 0.5])
        full = loss_from_logits(z, 1, pset(3, [0, 1, 2], 1), LossParams(1.0, 50.0))
        alpha_only = loss_from_logits(z, 1, pset(3, [0, 1, 2], 1), LossParams(1.0, 0.0))
        assert full.set_term == -np.inf
        assert full.z_implausible == -np.inf
        assert full.loss == pytest.approx(alpha_only.loss, abs=1e-14)

    def test_zero_alpha_drops_the_target_term(self):
        b = loss_from_logits([1.0, 2.0, 3.0], 0, pset(3, [0], 0), LossParams(0.0, 2.0))
        assert b.target_term == -np.inf
        assert np.isfinite(b.loss)

    def test_single_class_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning):
            b = loss_from_logits([3.0], 0, pset(1, [0], 0), LossParams(1.0, 1.0))
        assert b.loss == 0.0
        with pytest.warns(RuntimeWarning):
            g = row_grad([3.0], 0, pset(1, [0], 0), LossParams(1.0, 1.0))
        np.testing.assert_array_equal(g, [0.0])

    def test_breakdown_recomposes_to_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            C = int(rng.integers(2, 10))
            z = rng.normal(0, 2, C)
            t = int(rng.integers(C))
            members = rng.choice(C, size=int(rng.integers(1, C + 1)), replace=False)
            b = loss_from_logits(z, t, pset(C, members, t), LossParams(0.7, 3.0))
            terms = [b.constant_term, b.target_term, b.set_term]
            finite = [v for v in terms if v != -np.inf]
            m = max(finite)
            recomposed = m + np.log(sum(np.exp(v - m) for v in finite))
            np.testing.assert_allclose(b.loss, recomposed, rtol=1e-12, atol=1e-15)
            assert b.loss >= 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_ce_reduction_property(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 30))
        z = rng.uniform(-10, 10, C)
        t = int(rng.integers(C))
        got = loss_from_logits(z, t, pset(C, [t], t), LossParams(1.0, 0.0)).loss
        assert abs(got - log_softmax_oracle(z, t)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_shift_invariance_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 20))
        z = rng.uniform(-50, 50, C)
        t = int(rng.integers(C))
        members = rng.choice(C, size=int(rng.integers(1, C + 1)), replace=False)
        params = LossParams(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2))
        q = pset(C, members, t)
        base = loss_from_logits(z, t, q, params).loss
        shifted = loss_from_logits(z + rng.uniform(-100, 100), t, q, params).loss
        assert base >= 0.0
        assert abs(base - shifted) < 1e-10 * max(1.0, abs(base))


def central_difference(z, t, q, params, step=1e-5):
    z = np.asarray(z, dtype=np.float64)
    fd = np.empty_like(z)
    for c in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[c] += step
        zm[c] -= step
        fd[c] = (
            loss_from_logits(zp, t, q, params).loss - loss_from_logits(zm, t, q, params).loss
        ) / (2 * step)
    return fd


class TestGradient:
    def test_ce_gradient_identity(self):
        g = row_grad([0.0, 0.0], 0, pset(2, [0], 0), LossParams(1.0, 0.0))
        np.testing.assert_allclose(g, [-0.5, 0.5], atol=1e-15)

    def test_matches_finite_differences_on_reference_case(self):
        z = np.array([2.0, 1.0, 0.0, -1.0])
        q = pset(4, [0, 1], 0)
        params = LossParams(0.1, 10.0)
        g = row_grad(z, 0, q, params)
        fd = central_difference(z, 0, q, params)
        np.testing.assert_allclose(g, fd, rtol=1e-6)

    def test_gradient_sums_to_zero_under_shift_invariance(self):
        g = row_grad([5.0, 5.0, 5.0], 1, pset(3, [1], 1), LossParams(1.0, 1.0))
        assert abs(g.sum()) < 1e-12

    def test_random_configurations_against_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            C = int(rng.integers(2, 20))
            z = rng.normal(0.0, 1.0, C)
            t = int(rng.integers(C))
            members = rng.choice(C, size=int(rng.integers(1, C + 1)), replace=False)
            q = pset(C, members, t)
            params = LossParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1))
            g = row_grad(z, t, q, params)
            fd = central_difference(z, t, q, params)
            scale = max(1e-8, np.abs(g).max(), np.abs(fd).max())
            assert np.abs(g - fd).max() / scale < 1e-6

    def test_edge_weights_against_finite_differences(self):
        # alpha=0, beta=0, and full-set cases exercise the dropped-term paths
        rng = np.random.default_rng(12)
        cases = [
            (LossParams(0.0, 4.0), [0, 2]),
            (LossParams(2.5, 0.0), [1]),
            (LossParams(1.0, 7.0), [0, 1, 2, 3, 4]),
        ]
        for params, members in cases:
            z = rng.normal(0, 1, 5)
            q = pset(5, members, members[0])
            g = row_grad(z, members[0], q, params)
            fd = central_difference(z, members[0], q, params)
            np.testing.assert_allclose(g, fd, rtol=2e-6, atol=1e-9)

    def test_extreme_logits_gradient_finite(self):
        g = row_grad([1e4, -1e4, 0.0], 0, pset(3, [0, 2], 0), LossParams(0.5, 5.0))
        assert np.all(np.isfinite(g))


class TestBatch:
    def test_single_row_matches_single_sample(self):
        z = np.array([0.3, -1.2, 2.0])
        q = np.eye(3, dtype=bool)
        params = LossParams(1.0, 2.0)
        single = loss_from_logits(z, 1, pset(3, [1], 1), params).loss
        batched = batch_loss(z[None, :], [1], q, params)
        assert batched == pytest.approx(single, abs=1e-15)

    def test_mean_of_identical_rows_equals_single(self):
        z = np.array([0.3, -1.2, 2.0])
        q = np.eye(3, dtype=bool)
        params = LossParams(0.4, 3.0)
        single = loss_from_logits(z, 1, pset(3, [1], 1), params).loss
        batched = batch_loss(np.stack([z, z]), [1, 1], q, params)
        assert batched == pytest.approx(single, abs=1e-15)

    def test_target_out_of_range_raises(self):
        with pytest.raises(ValueError):
            batch_loss(np.zeros((1, 3)), [3], np.eye(3, dtype=bool), LossParams(1.0, 0.0))

    def test_empty_batch_raises(self):
        q, params = np.eye(3, dtype=bool), LossParams(1.0, 1.0)
        with pytest.raises(ValueError, match="^empty batch$"):
            batch_loss(np.zeros((0, 3)), [], q, params)
        with pytest.raises(ValueError, match="^empty batch$"):
            batch_loss_and_grad(np.zeros((0, 3)), [], q, params)

    @pytest.mark.parametrize("q_size", [1, 3])
    def test_q_of_another_class_count_raises(self, q_size):
        # a 1 x 1 Q would broadcast and mark all 6 classes plausible
        q = np.ones((q_size, q_size), dtype=bool)
        with pytest.raises(ValueError, match=rf"\({q_size}, {q_size}\) but the logits have 6 classes"):
            batch_loss(np.zeros((2, 6)), [0, 1], q, LossParams(1.0, 1.0))
        with pytest.raises(ValueError, match="6 classes"):
            loss_from_logits(np.zeros(6), 0, q, LossParams(1.0, 1.0))

    def test_batch_gradient_matches_per_sample(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(0, 1.5, size=(4, 5))
        targets = rng.integers(0, 5, size=4)
        q = rng.random((5, 5)) < 0.5
        params = LossParams(0.7, 2.0)
        _, G = batch_loss_and_grad(Z, targets, q, params)
        for b in range(4):
            expected = row_grad(Z[b], targets[b], q, params) / 4
            np.testing.assert_allclose(G[b], expected, rtol=1e-12, atol=1e-16)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(0, 300, size=(8, 12))
        p = softmax(Z, axis=1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_huge_logits_raise_no_floating_point_error(self):
        rng = np.random.default_rng(13)
        Z = rng.normal(0.0, 1e4, size=(16, 7))
        targets = rng.integers(0, 7, size=16)
        qs = [rng.random((7, 7)) < 0.4, np.eye(7, dtype=bool), np.ones((7, 7), dtype=bool)]
        # exp far below a cell's max rounds to 0 as IEEE requires, so only
        # underflow is allowed; overflow, invalid and divide must not occur
        with np.errstate(all="raise", under="ignore"):
            for q in qs:
                for params in (LossParams(0.1, 10.0), LossParams(0.0, 3.0), LossParams(2.0, 0.0)):
                    loss, grad = batch_loss_and_grad(Z, targets, q, params)
                    assert np.isfinite(loss) and np.all(np.isfinite(grad))

    @pytest.mark.parametrize(
        "class_count, q_kind, alpha, beta",
        [
            (5, "target_only", 0.7, 3.0),
            (5, "all_classes", 0.7, 3.0),
            (5, "random", 0.0, 4.0),
            (5, "random", 2.5, 0.0),
            (2, "random", 0.7, 3.0),
            (2, "target_only", 1.0, 1.0),
        ],
    )
    def test_batch_gradient_matches_finite_differences_on_edge_cells(self, class_count, q_kind, alpha, beta):
        rng = np.random.default_rng(class_count * 100 + int(alpha * 10) + int(beta))
        B, C = 6, class_count
        Z = rng.normal(0.0, 1.5, size=(B, C))
        targets = rng.integers(0, C, size=B)
        q = {
            "target_only": np.eye(C, dtype=bool),
            "all_classes": np.ones((C, C), dtype=bool),
            "random": rng.random((C, C)) < 0.5,
        }[q_kind]
        params = LossParams(alpha, beta)
        _, G = batch_loss_and_grad(Z, targets, q, params)
        # the central difference of the batch mean, one entry at a time; B
        # times it is that row's own gradient
        step = 1e-5
        fd = np.empty_like(Z)
        for b in range(B):
            for c in range(C):
                shift = np.zeros((B, C))
                shift[b, c] = step
                fd[b, c] = (batch_loss(Z + shift, targets, q, params) - batch_loss(Z - shift, targets, q, params)) / (2 * step)
        np.testing.assert_allclose(B * G, B * fd, rtol=2e-6, atol=1e-9)


@st.composite
def dual_margin_cases(draw):
    """A row of logits of scale up to 1e4 with its target, set mask and weights;
    N (the classes outside the set) is never empty."""
    C = draw(st.integers(3, 11))
    t, n_member = draw(st.lists(st.integers(0, C - 1), min_size=2, max_size=2, unique=True))
    mask = np.array(draw(st.lists(st.booleans(), min_size=C, max_size=C)))
    mask[t], mask[n_member] = True, False
    scale = draw(st.sampled_from([1.0, 1e4]) | st.floats(1e-2, 1e4))
    z = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=C, max_size=C)))
    weight = st.floats(0.01, 100.0)
    return z, t, mask, draw(weight), draw(weight), scale


def losses_both_ways(rows, t, mask, alpha, beta):
    """Per-row losses from ``loss_from_logits`` and from one batched kernel call."""
    rows = np.asarray(rows, dtype=np.float64)
    q = np.zeros((mask.size, mask.size), dtype=bool)
    q[:, t] = mask  # sets_from_q reads the target's column
    single = np.array([loss_from_logits(z, t, q, LossParams(alpha, beta)).loss for z in rows])
    at_t, masks = _gather_sets(q, np.full(len(rows), t))
    batched, _, _ = _kernel(rows, masks, at_t, alpha, beta, want_grad=False)
    return single, batched


def assert_no_greater(a, b):
    """a <= b, up to 1e-12 of their size."""
    assert a <= b + 1e-12 * max(abs(a), abs(b)), (a, b)


class TestFormalProperties:
    """Monotonicity and partial convexity of the loss, with P = S - {t} and
    N the classes outside S: it falls as z_t rises, rises with every z_c in
    N and with alpha and beta, and is convex along directions that move only
    N's logits (not along P's or z_t's)."""

    @settings(max_examples=100, deadline=None)
    @given(case=dual_margin_cases(), step=st.floats(0.0, 1.0))
    def test_non_increasing_in_the_target_logit(self, case, step):
        z, t, mask, alpha, beta, scale = case
        raised = z.copy()
        raised[t] += step * scale
        for before, after in losses_both_ways([z, raised], t, mask, alpha, beta):
            assert_no_greater(after, before)

    @settings(max_examples=100, deadline=None)
    @given(case=dual_margin_cases(), step=st.floats(0.0, 1.0))
    def test_non_decreasing_in_each_implausible_logit(self, case, step):
        z, t, mask, alpha, beta, scale = case
        rows = [z]
        for c in np.flatnonzero(~mask):
            raised = z.copy()
            raised[c] += step * scale
            rows.append(raised)
        for losses in losses_both_ways(rows, t, mask, alpha, beta):
            for after in losses[1:]:
                assert_no_greater(losses[0], after)

    @settings(max_examples=100, deadline=None)
    @given(case=dual_margin_cases(), factor=st.floats(1.0, 100.0), which=st.sampled_from(["alpha", "beta"]))
    def test_non_decreasing_in_alpha_and_beta(self, case, factor, which):
        z, t, mask, alpha, beta, _ = case
        low = losses_both_ways([z], t, mask, alpha, beta)
        if which == "alpha":
            high = losses_both_ways([z], t, mask, alpha * factor, beta)
        else:
            high = losses_both_ways([z], t, mask, alpha, beta * factor)
        for lo, hi in zip(low, high):
            assert_no_greater(lo[0], hi[0])

    @settings(max_examples=100, deadline=None)
    @given(case=dual_margin_cases(), data=st.data())
    def test_midpoint_convex_along_implausible_directions(self, case, data):
        z, t, mask, alpha, beta, scale = case
        direction = np.where(mask, 0.0, scale * np.array(data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=z.size, max_size=z.size)
        )))
        for mid, plus, minus in losses_both_ways([z, z + direction, z - direction], t, mask, alpha, beta):
            assert_no_greater(mid, (plus + minus) / 2)

    @settings(max_examples=100, deadline=None)
    @given(case=dual_margin_cases())
    def test_gradient_sign_at_target_and_on_implausible(self, case):
        z, t, mask, alpha, beta, _ = case
        q = np.zeros((z.size, z.size), dtype=bool)
        q[:, t] = mask
        _, grad = batch_loss_and_grad(z[None, :], [t], q, LossParams(alpha, beta))
        assert grad[0, t] <= 0.0
        assert np.all(grad[0, ~mask] >= 0.0)
