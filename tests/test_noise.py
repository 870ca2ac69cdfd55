"""Tests for transition-matrix construction and label corruption."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dualmargin import NoiseSpec, TransitionMatrix, build_transition, corrupt_labels, q_from_transition
from dualmargin.noise import default_column_sinks
from helpers import dense_transition, per_class_corrupt_labels, transition_from_dense


class TestColumn:
    def test_canonical_entries(self):
        t = build_transition(NoiseSpec("column", 0.6, sinks=(3, 5)), 10)
        T = dense_transition(t)
        assert T[0, 0] == 1.0 - 0.6
        assert T[0, 3] == 0.6 / 2
        assert T[0, 5] == 0.6 / 2
        assert T[3, 3] == pytest.approx(0.6, abs=1e-15)
        assert T[3, 5] == pytest.approx(0.4, abs=1e-15)
        assert T[5, 5] == pytest.approx(0.6, abs=1e-15)
        assert T[5, 3] == pytest.approx(0.4, abs=1e-15)

    def test_sparsity_structure(self):
        t = build_transition(NoiseSpec("column", 0.6, sinks=(3, 5)), 10)
        nz = (dense_transition(t) > 0).sum(axis=1)
        for c in range(10):
            assert nz[c] == (2 if c in (3, 5) else 3)

    def test_zero_rate_is_identity(self):
        t = build_transition(NoiseSpec("column", 0.0), 10)
        np.testing.assert_array_equal(dense_transition(t), np.eye(10))

    def test_default_sinks(self):
        assert default_column_sinks(10) == (3, 5)
        assert default_column_sinks(6) == (2, 3)

    def test_sinks_out_of_range(self):
        with pytest.raises(ValueError, match="^sinks "):
            build_transition(NoiseSpec("column", 0.6, sinks=(3, 11)), 10)
        with pytest.raises(ValueError, match="^sinks "):
            build_transition(NoiseSpec("column", 0.6, sinks=(4, 4)), 10)
        with pytest.raises(ValueError, match="^sinks "):
            build_transition(NoiseSpec("column", 0.6, sinks=(1, 2, 3)), 10)


class TestAsymmetricPairs:
    PAIRS = [(9, 1), (2, 0), (3, 5), (4, 7)]

    def test_canonical_entries(self):
        t = build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=self.PAIRS), 10)
        T = dense_transition(t)
        assert T[3, 3] == 1.0 - 0.45
        assert T[3, 5] == 0.45
        for c in (0, 1, 5, 6, 7, 8):
            assert T[c, c] == 1.0

    def test_duplicate_source_rejected(self):
        with pytest.raises(ValueError, match="^pairs "):
            build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=[(1, 2), (1, 3)]), 5)

    def test_self_flip_rejected(self):
        with pytest.raises(ValueError, match="^pairs "):
            build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=[(2, 2)]), 5)

    @pytest.mark.parametrize("pairs", [[], [(0, 5)], [(-1, 2)], [(0, 1, 2)]])
    def test_pairs_outside_the_classes_rejected(self, pairs):
        with pytest.raises(ValueError, match="^pairs "):
            build_transition(NoiseSpec("asymmetric_pairs", 0.45, pairs=pairs), 5)


class TestSuperclass:
    def test_cyclic_entries(self):
        t = build_transition(NoiseSpec("cyclic_superclass", 0.45, group_size=5), 100)
        T = dense_transition(t)
        assert T[0, 0] == 1.0 - 0.45
        assert T[0, 1] == 0.45
        assert T[4, 0] == 0.45  # last member wraps to the group start
        assert T[4, 5] == 0.0
        assert T[97, 98] == 0.45

    def test_block_entries(self):
        t = build_transition(NoiseSpec("block_superclass", 0.6, group_size=5), 100)
        T = dense_transition(t)
        assert T[7, 7] == 1.0 - 0.6
        base = (7 // 5) * 5
        for other in range(base, base + 5):
            if other != 7:
                assert T[7, other] == 0.6 / 4
        assert T[7, base + 5] == 0.0

    def test_indivisible_count_rejected(self):
        with pytest.raises(ValueError, match="^group_size "):
            build_transition(NoiseSpec("block_superclass", 0.6, group_size=3), 10)

    def test_group_size_required(self):
        with pytest.raises(ValueError, match="^group_size "):
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
        np.testing.assert_allclose(dense_transition(t).sum(axis=1), 1.0, atol=1e-12)

    def test_invalid_rows_rejected_by_type(self):
        with pytest.raises(ValueError, match="^row 0 sums to"):
            transition_from_dense(np.array([[0.5, 0.4], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "starts, columns, probs, message",
        [
            ([1, 2], [0], [1.0], "^starts "),
            ([0, 2, 1], [0, 1], [0.5, 0.5], "^starts "),
            ([0, 1, 2], [0, 1], [1.0], "^columns and probs "),
            ([0, 1, 2], [0, 2], [1.0, 1.0], r"^columns must lie in \[0, 2\)"),
            ([0, 2, 3], [1, 0, 1], [0.5, 0.5, 1.0], "^a row's columns must increase"),
            ([0, 2, 3], [0, 0, 1], [0.5, 0.5, 1.0], "^a row's columns must increase"),
            ([0, 2, 3], [0, 1, 1], [1.0, 0.0, 1.0], "^transition probabilities must be positive"),
            ([0, 1, 1], [0], [1.0], "^row 1 sums to 0.0, not 1$"),
        ],
        ids=[
            "first-start", "falling-starts", "short-probs", "column-range",
            "falling-columns", "repeated-column", "stored-zero", "empty-row",
        ],
    )
    def test_malformed_rows_rejected(self, starts, columns, probs, message):
        with pytest.raises(ValueError, match=message):
            TransitionMatrix(np.array(starts), np.array(columns), np.array(probs))

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("column", 1.5)
        with pytest.raises(ValueError):
            NoiseSpec("funnel", 0.5)


def per_row_transition(spec, C):
    """T built one row at a time, as the entries are defined."""
    eta = spec.eta
    T = np.eye(C)
    if spec.topology == "column":
        s1, s2 = spec.sinks if spec.sinks is not None else default_column_sinks(C)
        for c in range(C):
            if c in (s1, s2):
                continue
            T[c, c] = 1.0 - eta
            T[c, s1] = eta / 2.0
            T[c, s2] = eta / 2.0
        sink_rate = max(0.0, eta - 0.2)
        T[s1, s1] = 1.0 - sink_rate
        T[s1, s2] = sink_rate
        T[s2, s2] = 1.0 - sink_rate
        T[s2, s1] = sink_rate
    elif spec.topology == "asymmetric_pairs":
        for src, dst in spec.pairs:
            T[src, src] = 1.0 - eta
            T[src, dst] = eta
    else:
        g = spec.group_size
        for c in range(C):
            base = (c // g) * g
            T[c, c] = 1.0 - eta
            if spec.topology == "cyclic_superclass":
                T[c, base + (c - base + 1) % g] += eta
            else:
                for other in range(base, base + g):
                    if other != c:
                        T[c, other] = eta / (g - 1)
    return T


def layouts(C):
    """Every topology at class count C, with reversed sinks and chained pairs."""
    yield "column", {}
    yield "column", {"sinks": (C - 1, 0)}
    yield "asymmetric_pairs", {"pairs": [(C - 1, 0)]}
    yield "asymmetric_pairs", {"pairs": [(c, c + 1) for c in range(C - 1)]}  # each dst is the next src
    yield "asymmetric_pairs", {"pairs": [(c, c - 1) for c in range(C - 1, 0, -2)]}
    # one group of all classes up to C = 100: the oracle's block rows cost g**2 steps per group
    for g in sorted(g for g in {2, 3, 4, 5, 6, 10, min(C, 100)} if g <= C and C % g == 0):
        yield "cyclic_superclass", {"group_size": g}
        yield "block_superclass", {"group_size": g}


class TestPerRowOracle:
    @pytest.mark.parametrize("C", [*range(2, 13), 100, 1000])
    def test_every_entry_has_the_oracle_bits(self, C):
        specs = 0
        for topology, layout in layouts(C):
            for eta in (0.0, -0.0, 0.1, 0.2, 0.6, 1.0):
                spec = NoiseSpec(topology, eta, **layout)
                t, T = build_transition(spec, C), per_row_transition(spec, C)
                # the oracle's nonzeros, row by row with columns increasing; it
                # holds -0.0 where eta is -0.0, which is no nonzero
                rows, columns = np.nonzero(T)
                assert t.class_count == C, spec
                np.testing.assert_array_equal(t.rows, rows)
                np.testing.assert_array_equal(t.columns, columns)
                assert t.probs.tobytes() == T[rows, columns].tobytes(), spec
                specs += 1
        assert specs >= 5 * 6

    @pytest.mark.parametrize("C", [2, 10, 1000])
    def test_q_and_corruption_have_the_oracle_bits(self, monkeypatch, C):
        labels = np.arange(C).repeat(4)
        u = np.random.default_rng(C).random(labels.size)
        draws = []

        class FixedDraws:
            def random(self, size):
                return draws[-1].copy()

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws())
        for topology, layout in layouts(C):
            for eta in (0.0, 0.2, 0.6, 1.0):
                spec = NoiseSpec(topology, eta, **layout)
                t, T = build_transition(spec, C), per_row_transition(spec, C)
                q = q_from_transition(t)
                assert q.flags.f_contiguous
                np.testing.assert_array_equal(q, T > 0)
                cdf = np.cumsum(T, axis=1)  # the dense per-row CDF
                # every class's last draw is its row's total, which is past its end
                draws.append(u.copy())
                draws[-1][3::4] = cdf[:, -1]
                drawn = (cdf[labels] <= draws[-1][:, None]).sum(axis=1)  # searchsorted(side="right")
                last = C - 1 - np.argmax(T[:, ::-1] > 0, axis=1)
                expected = np.where(drawn < C, drawn, last[labels])
                np.testing.assert_array_equal(corrupt_labels(labels, t, seed=0), expected)


class TestLayoutKeys:
    @pytest.mark.parametrize(
        "topology, layout, stray",
        [
            ("column", {}, {"group_size": 3}),
            ("column", {"sinks": (3, 5)}, {"pairs": [(0, 1)]}),
            ("asymmetric_pairs", {"pairs": [(0, 1)]}, {"sinks": (1, 2)}),
            ("asymmetric_pairs", {"pairs": [(0, 1)]}, {"group_size": 2}),
            ("cyclic_superclass", {"group_size": 2}, {"sinks": (0, 1)}),
            ("block_superclass", {"group_size": 2}, {"pairs": [(0, 1)]}),
        ],
    )
    def test_a_key_its_topology_never_reads_is_rejected(self, topology, layout, stray):
        build_transition(NoiseSpec(topology, 0.3, **layout), 10)
        (key,) = stray
        with pytest.raises(ValueError, match=f"^{key} does not apply to topology '{topology}'$"):
            NoiseSpec(topology, 0.3, **layout, **stray)


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
        expected = prior @ dense_transition(t)
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
            expected = dense_transition(t)[c] * per_class
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
        cdf = np.cumsum(dense_transition(t), axis=1)
        expected = np.array([min(np.searchsorted(cdf[c], ui, side="right"), 11) for c, ui in zip(labels, u)], dtype=int)
        out = corrupt_labels(labels, t, seed=9)
        assert out.dtype == expected.dtype and out.shape == (n,)
        np.testing.assert_array_equal(out, expected)

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
    def test_equals_the_dense_cdf_formula_up_to_the_clamp(self, monkeypatch, spec):
        C = 12
        probs = dense_transition(build_transition(spec, C))
        short = 5  # a row summing to 1 - 1e-13, inside the row-sum tolerance
        probs[short, np.argmax(probs[short])] -= 1e-13
        t = transition_from_dense(probs)
        labels = np.random.default_rng(1).integers(0, C, size=3000)
        u = np.random.default_rng(2).random(labels.size)
        # draws above the short row's last CDF value fall past its end
        u[np.flatnonzero(labels == short)[:3]] = [1.0 - 1e-13, 1.0 - 1e-14, np.nextafter(1.0, 0.0)]

        class FixedDraws:
            def random(self, size):
                assert size == u.size
                return u.copy()

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws())
        out = corrupt_labels(labels, t, seed=0)
        cdf = np.cumsum(probs, axis=1)  # the dense (C, C) form
        drawn = [np.searchsorted(cdf[c], ui, side="right") for c, ui in zip(labels, u)]
        # a draw past the row's end takes its last class of nonzero probability
        expected = [d if d < C else np.flatnonzero(probs[c])[-1] for c, d in zip(labels, drawn)]
        np.testing.assert_array_equal(out, expected)
        past_end = (labels == short) & (u >= cdf[short, -1])
        assert past_end.sum() >= 2  # the clamp is reached
        assert np.all(probs[short, out[past_end]] > 0)

    def test_out_of_range_labels_rejected(self):
        t = build_transition(NoiseSpec("column", 0.6), 10)
        with pytest.raises(ValueError):
            corrupt_labels([10], t, seed=0)


class TestCorruptionEqualsPerClassLoop:
    """``corrupt_labels`` draws the labels of the per-class searchsorted loop (helpers.per_class_corrupt_labels)."""

    @pytest.mark.parametrize("C", [10, 1000])
    def test_every_topology_and_rate(self, monkeypatch, C):
        labels = np.random.default_rng(C).integers(0, C, size=4 * C)
        labels[labels % 3 == 1] -= 1  # a third of the classes have no labels
        specs = 0
        for topology, layout in layouts(C):
            for eta in (0.0, 0.2, 0.6, 1.0):
                t = build_transition(NoiseSpec(topology, eta, **layout), C)
                u = np.random.default_rng(specs).random(labels.size)
                np.testing.assert_array_equal(corrupt_labels(labels, t, seed=specs), per_class_corrupt_labels(labels, t, u))
                # draws exactly at a CDF entry of the label's row, at its total, one ulp below it, and 0
                cdfs = [np.cumsum(t.probs[lo:hi]) for lo, hi in zip(t.starts[:-1], t.starts[1:])]
                at_entry = np.array([cdfs[c][i % cdfs[c].size] for i, c in enumerate(labels)])
                total = np.array([cdfs[c][-1] for c in labels])
                edges = np.choose(np.arange(labels.size) % 4, [at_entry, total, np.nextafter(total, 0.0), 0.0 * u])

                class FixedDraws:
                    def random(self, size):
                        assert size == edges.size
                        return edges.copy()

                with monkeypatch.context() as patch:
                    patch.setattr(np.random, "default_rng", lambda seed: FixedDraws())
                    out = corrupt_labels(labels, t, seed=0)
                np.testing.assert_array_equal(out, per_class_corrupt_labels(labels, t, edges))
                specs += 1
        assert specs >= 4 * 8

    def test_peak_memory_holds_no_labels_by_row_array(self):
        # the padded CDF has as many entries as T has nonzeros; an (n, k) gather of it would take 80 MB
        t = build_transition(NoiseSpec("block_superclass", 0.6, group_size=500), 1000)
        labels = np.random.default_rng(0).integers(0, 1000, size=20_000)
        tracemalloc.start()
        try:
            out = corrupt_labels(labels, t, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, per_class_corrupt_labels(labels, t, np.random.default_rng(1).random(labels.size)))
        assert peak <= t.probs.nbytes + 2 * 2**20
