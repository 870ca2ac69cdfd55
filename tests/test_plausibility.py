"""Tests for plausibility-matrix constructors and their text format."""

import numpy as np
import pytest

from dualmargin import (
    LossParams,
    batch_loss_and_grad,
    loss_from_logits,
    q_from_transition,
    q_mil,
    q_ordinal,
    sets_from_q,
    build_transition,
    NoiseSpec,
)
from dualmargin.plausibility import load_q_text, q_from_text
from helpers import dense_transition, transition_from_dense


def members(q, label):
    return set(np.flatnonzero(sets_from_q(q, np.array([label]))[0]))


class TestIdentity:
    def test_every_set_is_singleton(self):
        q = np.eye(5, dtype=bool)
        for t in range(5):
            assert members(q, t) == {t}

    def test_beta_sharpens_beyond_ce(self):
        # with a singleton set the second margin also targets the label,
        # so any beta > 0 strictly increases the penalty vs plain CE
        rng = np.random.default_rng(0)
        q = np.eye(6, dtype=bool)
        for _ in range(25):
            z = rng.normal(0, 2, 6)
            t = int(rng.integers(6))
            ce = loss_from_logits(z, t, q, LossParams(1.0, 0.0)).loss
            sharpened = loss_from_logits(z, t, q, LossParams(1.0, 1.0)).loss
            assert sharpened > ce


class TestOrdinal:
    def test_wrap_crosses_the_seam(self):
        assert members(q_ordinal(8, 1), 0) == {7, 0, 1}

    def test_zero_window_equals_identity(self):
        np.testing.assert_array_equal(q_ordinal(6, 0), np.eye(6, dtype=bool))

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError):
            q_ordinal(4, 4)


class TestMil:
    def test_exact_asymmetry(self):
        q = q_mil()
        assert q[0, 1] == True  # noqa: E712 - exact boolean contract
        assert q[1, 0] == False  # noqa: E712

    def test_sets(self):
        q = q_mil()
        assert members(q, 1) == {0, 1}
        assert members(q, 0) == {0}

    def test_gradient_signs(self):
        # negatively-labeled: the positive logit is pushed down (grad > 0);
        # positively-labeled: only the weak alpha pull anchors it (grad < 0)
        rng = np.random.default_rng(2)
        q = q_mil()
        alpha, beta = 0.1, 10.0
        dual_margin = LossParams(alpha, beta)
        ce = LossParams(1.0, 0.0)
        for _ in range(50):
            z = rng.normal(0, 2, size=(1, 2))
            _, g_neg = batch_loss_and_grad(z, [0], q, dual_margin)
            assert g_neg[0, 1] >= 0.0
            _, g_pos = batch_loss_and_grad(z, [1], q, dual_margin)
            assert g_pos[0, 1] <= 0.0
            # the pos-label pull never exceeds the CE pull for alpha <= 1
            _, g_ce = batch_loss_and_grad(z, [1], q, ce)
            assert abs(g_pos[0, 1]) < abs(g_ce[0, 1])


class TestFromTransition:
    def test_identity_transition(self):
        t = build_transition(NoiseSpec("column", 0.0), 10)
        np.testing.assert_array_equal(q_from_transition(t), np.eye(10, dtype=bool))

    def test_column_sets(self):
        t = build_transition(NoiseSpec("column", 0.6, sinks=(3, 5)), 10)
        q = q_from_transition(t)
        assert members(q, 3) == set(range(10))  # sink label: every class plausible
        assert members(q, 0) == {0}  # non-sink label: only itself

    def test_asymmetric_sets(self):
        pairs = [(9, 1), (2, 0), (3, 5), (4, 7)]
        t = build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=pairs), 10)
        q = q_from_transition(t)
        assert members(q, 1) == {1, 9}
        assert members(q, 0) == {0, 2}
        assert members(q, 8) == {8}

    def test_marks_exact_support(self):
        t = build_transition(NoiseSpec("block_superclass", 0.6, group_size=5), 20)
        np.testing.assert_array_equal(q_from_transition(t), dense_transition(t) > 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            transition_from_dense(np.ones((2, 3)) / 3)


class TestConsumption:
    def test_forced_diagonal_yields_nonempty_sets(self):
        # even an all-false Q produces valid singleton sets at consumption
        q = np.zeros((4, 4), dtype=bool)
        masks = sets_from_q(q, np.arange(4))
        assert masks.sum(axis=1).min() == 1


class TestSerialization:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("1 1 0 0 1\n1 1 1 0 0\n0 1 1 1 0\n0 0 1 1 1\n1 0 0 1 1\n")
        np.testing.assert_array_equal(load_q_text(path), q_ordinal(5, 1))

    def test_bad_token_names_row(self):
        with pytest.raises(ValueError, match="row 1"):
            q_from_text("1 0\n1 2\n")

    def test_ragged_rows_name_row(self):
        with pytest.raises(ValueError, match="row 1"):
            q_from_text("1 0\n1\n")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            q_from_text("1 0 1\n0 1 0\n")
