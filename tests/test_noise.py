"""Tests for transition-matrix construction and label corruption."""

import numpy as np
import pytest
from scipy import stats

from dualmargin import NoiseSpec, TransitionMatrix, build_transition, corrupt_labels
from dualmargin.noise import default_column_sinks


class TestColumn:
    def test_canonical_entries(self):
        t = build_transition(NoiseSpec("column", 0.6, sinks=(3, 5)), 10)
        T = t.probs
        assert T[0, 0] == 1.0 - 0.6
        assert T[0, 3] == 0.6 / 2
        assert T[0, 5] == 0.6 / 2
        assert T[3, 3] == pytest.approx(0.6, abs=1e-15)
        assert T[3, 5] == pytest.approx(0.4, abs=1e-15)
        assert T[5, 5] == pytest.approx(0.6, abs=1e-15)
        assert T[5, 3] == pytest.approx(0.4, abs=1e-15)

    def test_sparsity_structure(self):
        t = build_transition(NoiseSpec("column", 0.6, sinks=(3, 5)), 10)
        nz = (t.probs > 0).sum(axis=1)
        for c in range(10):
            assert nz[c] == (2 if c in (3, 5) else 3)

    def test_zero_rate_is_identity(self):
        t = build_transition(NoiseSpec("column", 0.0), 10)
        np.testing.assert_array_equal(t.probs, np.eye(10))

    def test_default_sinks(self):
        assert default_column_sinks(10) == (3, 5)
        assert default_column_sinks(6) == (2, 3)

    def test_sinks_out_of_range(self):
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("column", 0.6, sinks=(3, 11)), 10)
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("column", 0.6, sinks=(4, 4)), 10)


class TestAsymmetricPairs:
    PAIRS = [(9, 1), (2, 0), (3, 5), (4, 7)]

    def test_canonical_entries(self):
        t = build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=self.PAIRS), 10)
        T = t.probs
        assert T[3, 3] == 1.0 - 0.45
        assert T[3, 5] == 0.45
        for c in (0, 1, 5, 6, 7, 8):
            assert T[c, c] == 1.0

    def test_duplicate_source_rejected(self):
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=[(1, 2), (1, 3)]), 5)

    def test_self_flip_rejected(self):
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=[(2, 2)]), 5)


class TestSuperclass:
    def test_cyclic_entries(self):
        t = build_transition(NoiseSpec("cyclic_superclass", 0.45, group_size=5), 100)
        T = t.probs
        assert T[0, 0] == 1.0 - 0.45
        assert T[0, 1] == 0.45
        assert T[4, 0] == 0.45  # last member wraps to the group start
        assert T[4, 5] == 0.0
        assert T[97, 98] == 0.45

    def test_block_entries(self):
        t = build_transition(NoiseSpec("block_superclass", 0.6, group_size=5), 100)
        T = t.probs
        assert T[7, 7] == 1.0 - 0.6
        base = (7 // 5) * 5
        for other in range(base, base + 5):
            if other != 7:
                assert T[7, other] == 0.6 / 4
        assert T[7, base + 5] == 0.0

    def test_indivisible_count_rejected(self):
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("block_superclass", 0.6, group_size=3), 10)

    def test_group_size_required(self):
        with pytest.raises(ValueError):
            build_transition(NoiseSpec("cyclic_superclass", 0.45), 10)


class TestRowStochastic:
    @pytest.mark.parametrize(
        "spec,count",
        [
            (NoiseSpec("column", 0.6, sinks=(3, 5)), 10),
            (NoiseSpec("column", 0.35), 7),
            (NoiseSpec("asymmetric_pairs", 0.45, pairs=[(9, 1), (2, 0), (3, 5), (4, 7)]), 10),
            (NoiseSpec("cyclic_superclass", 0.45, group_size=5), 100),
            (NoiseSpec("block_superclass", 0.6, group_size=5), 100),
            (NoiseSpec("block_superclass", 1.0, group_size=4), 12),
        ],
    )
    def test_rows_sum_to_one(self, spec, count):
        t = build_transition(spec, count)
        np.testing.assert_allclose(t.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_invalid_rows_rejected_by_type(self):
        with pytest.raises(ValueError):
            TransitionMatrix(probs=np.array([[0.5, 0.4], [0.0, 1.0]]))

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("column", 1.5)
        with pytest.raises(ValueError):
            NoiseSpec("funnel", 0.5)


class TestCorruption:
    def test_identity_leaves_labels_unchanged(self):
        t = build_transition(NoiseSpec("column", 0.0), 10)
        labels = np.arange(10).repeat(13)
        np.testing.assert_array_equal(corrupt_labels(labels, t, seed=5), labels)

    def test_same_seed_same_output(self):
        t = build_transition(NoiseSpec("column", 0.6, sinks=(3, 5)), 10)
        labels = np.tile(np.arange(10), 500)
        out1 = corrupt_labels(labels, t, seed=42)
        out2 = corrupt_labels(labels, t, seed=42)
        np.testing.assert_array_equal(out1, out2)
        assert not np.array_equal(out1, corrupt_labels(labels, t, seed=43))

    def test_sink_mass_matches_expectation(self):
        # oracle: expected label distribution = uniform prior times T
        t = build_transition(NoiseSpec("column", 0.6, sinks=(3, 5)), 10)
        n = 100_000
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=n)
        out = corrupt_labels(labels, t, seed=7)
        prior = np.bincount(labels, minlength=10) / n
        expected = prior @ t.probs
        for s in (3, 5):
            frac = (out == s).mean()
            sigma = np.sqrt(expected[s] * (1 - expected[s]) / n)
            assert abs(frac - expected[s]) < 4 * sigma

    def test_per_row_frequencies_converge(self):
        # chi-square goodness of fit per source class at 10^4 draws/class
        t = build_transition(NoiseSpec("block_superclass", 0.6, group_size=5), 10)
        per_class = 10_000
        labels = np.arange(10).repeat(per_class)
        out = corrupt_labels(labels, t, seed=3)
        for c in range(10):
            observed = np.bincount(out[labels == c], minlength=10)
            expected = t.probs[c] * per_class
            support = expected > 0
            chi2 = ((observed[support] - expected[support]) ** 2 / expected[support]).sum()
            dof = support.sum() - 1
            assert chi2 < stats.chi2.ppf(0.9999, dof)
            assert observed[~support].sum() == 0  # never leaves the support

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec("column", 0.6),
            NoiseSpec("asymmetric_pairs", 0.4, pairs=[(0, 1), (3, 2), (7, 0)]),
            NoiseSpec("cyclic_superclass", 0.3, group_size=4),
            NoiseSpec("block_superclass", 0.6, group_size=4),
        ],
        ids=lambda spec: spec.topology,
    )
    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_matches_scalar_loop_oracle(self, spec, n):
        t = build_transition(spec, 12)
        labels = np.random.default_rng(n).integers(0, 12, size=n)
        labels[labels == 11] = 10  # one class that never occurs
        # oracle: the inverse-CDF draw one label at a time
        u = np.random.default_rng(9).random(n)
        cdf = np.cumsum(t.probs, axis=1)
        expected = np.array([min(np.searchsorted(cdf[c], ui, side="right"), 11) for c, ui in zip(labels, u)], dtype=int)
        out = corrupt_labels(labels, t, seed=9)
        assert out.dtype == expected.dtype and out.shape == (n,)
        np.testing.assert_array_equal(out, expected)

    def test_out_of_range_labels_rejected(self):
        t = build_transition(NoiseSpec("column", 0.6), 10)
        with pytest.raises(ValueError):
            corrupt_labels([10], t, seed=0)
