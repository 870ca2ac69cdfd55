"""Tests for the synthetic dataset generators."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from dualmargin import (
    LossParams,
    datasets,
    TrainConfig,
    make_gaussian_mixture,
    make_mil_bags,
    make_ring,
    q_ordinal,
    train,
)
from helpers import blocked_min_distance


def ring_sector(theta, class_count):
    width = 2 * np.pi / class_count
    return (np.mod(theta, 2 * np.pi) // width).astype(int)


class TestRing:
    def test_zero_noise_points_stay_in_their_sector(self):
        ds = make_ring(8, 100, angular_noise_std=0.0, seed=1)
        theta = np.arctan2(ds.features[:, 1], ds.features[:, 0])
        np.testing.assert_array_equal(ring_sector(theta, 8), ds.clean_labels)

    def test_crossing_fraction_matches_gaussian_tail_oracle(self):
        C, std, n_per = 8, 0.15, 2000
        ds = make_ring(C, n_per, angular_noise_std=std, seed=3)
        theta = np.arctan2(ds.features[:, 1], ds.features[:, 0])
        observed = ring_sector(theta, C)
        crossed = (observed != ds.clean_labels).mean()
        # oracle: point offset u ~ U(0, w) inside its sector crosses with
        # probability Phi(-u/std) + Phi(-(w-u)/std); average by quadrature
        w = 2 * np.pi / C
        expected, _ = integrate.quad(lambda u: stats.norm.cdf(-u / std) * 2.0 / w, 0.0, w)
        n = C * n_per
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(crossed - expected) < 4 * sigma

    def test_crossings_are_adjacent_only(self):
        C = 8
        ds = make_ring(C, 2000, angular_noise_std=0.15, seed=4)
        theta = np.arctan2(ds.features[:, 1], ds.features[:, 0])
        observed = ring_sector(theta, C)
        dist = np.abs(observed - ds.clean_labels)
        dist = np.minimum(dist, C - dist)
        assert (dist >= 2).mean() < 1e-3

    def test_unit_radius_and_determinism(self):
        a = make_ring(5, 50, 0.2, seed=9)
        b = make_ring(5, 50, 0.2, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_allclose(np.linalg.norm(a.features, axis=1), 1.0, atol=1e-12)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            make_ring(2, 10)


class TestGaussianMixture:
    def test_minimum_pairwise_separation_is_exact(self):
        ds = make_gaussian_mixture(6, dim=10, n_per_class=5, class_separation=4.0, seed=2)
        # recover the empirical means loosely; the construction itself is
        # checked through a fresh draw of the same means
        again = make_gaussian_mixture(6, dim=10, n_per_class=5, class_separation=4.0, seed=2)
        np.testing.assert_array_equal(ds.features, again.features)

    def test_zero_separation_is_chance_level(self):
        ds = make_gaussian_mixture(5, dim=8, n_per_class=300, class_separation=0.0, seed=0)
        test = make_gaussian_mixture(5, dim=8, n_per_class=300, class_separation=0.0, seed=1, means_seed=0)
        cfg = TrainConfig(learning_rate=0.1, epochs=15, batch_size=128, seed=0)
        _, report = train(ds, None, cfg, test_data=test)
        assert abs(report.clean_test_accuracy - 0.2) < 0.08

    def test_large_separation_trains_past_99(self):
        ds = make_gaussian_mixture(4, dim=8, n_per_class=300, class_separation=8.0, seed=5)
        test = make_gaussian_mixture(4, dim=8, n_per_class=300, class_separation=8.0, seed=6, means_seed=5)
        cfg = TrainConfig(learning_rate=0.1, epochs=25, batch_size=128, seed=0)
        _, report = train(ds, None, cfg, test_data=test)
        assert report.clean_test_accuracy > 0.99

    def test_class_means_respect_separation(self):
        C, d, sep = 7, 16, 5.0
        ds = make_gaussian_mixture(C, dim=d, n_per_class=4000, class_separation=sep, seed=8)
        means = np.stack([ds.features[ds.clean_labels == c].mean(axis=0) for c in range(C)])
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        min_dist = dists[~np.eye(C, dtype=bool)].min()
        assert abs(min_dist - sep) < 0.25  # sample noise on the empirical means


def one_shot_mixture(C, d, n, sep, seed, means_seed=None):
    """The mixture features as made with the whole (C, C, d) difference tensor."""
    means_rng = np.random.default_rng(seed if means_seed is None else means_seed)
    rng = np.random.default_rng(seed)
    if C <= d:
        directions, _ = np.linalg.qr(means_rng.normal(size=(d, C)))
        means = directions.T
    else:
        means = means_rng.normal(size=(C, d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
    if C > 1 and sep > 0:
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        means = means * (sep / dists[~np.eye(C, dtype=bool)].min())
    elif sep == 0:
        means = np.zeros_like(means)
    labels = np.repeat(np.arange(C), n)
    return means[labels] + rng.normal(size=(labels.size, d))


class TestMixtureBlockedDistances:
    @pytest.mark.parametrize(
        "C,d,sep",
        [
            (6, 10, 4.0),  # C <= d: QR directions
            (10, 10, 16.0),
            (45, 3, 4.0),  # C > d: normalised draws
            (200, 16, 16.0),
            (1, 4, 4.0),
            (5, 8, 0.0),
            (40, 2, 0.0),
        ],
    )
    @pytest.mark.parametrize("block_rows", [None, 1, 7])
    def test_bytes_equal_one_shot_formula(self, monkeypatch, C, d, sep, block_rows):
        datasets._mixture_means.cache_clear()  # else an earlier case's means skip the blocks
        if block_rows is not None:  # blocks of that many rows; the last one may be short
            monkeypatch.setattr(datasets, "_BLOCK_BYTES", block_rows * C * d * 8)
        for seed, means_seed in ((3, None), (4, 3)):
            ds = make_gaussian_mixture(C, dim=d, n_per_class=3, class_separation=sep, seed=seed, means_seed=means_seed)
            expected = one_shot_mixture(C, d, 3, sep, seed, means_seed)
            assert ds.features.tobytes() == expected.tobytes()


class TestMixtureMeansCache:
    def test_splits_of_one_mixture_compute_the_means_once(self, monkeypatch):
        datasets._mixture_means.cache_clear()
        calls = []
        real = datasets._min_pairwise_distance
        monkeypatch.setattr(datasets, "_min_pairwise_distance", lambda means: calls.append(1) or real(means))
        train_ds = make_gaussian_mixture(30, dim=4, n_per_class=5, class_separation=4.0, seed=8, means_seed=8)
        test_ds = make_gaussian_mixture(30, dim=4, n_per_class=2, class_separation=4.0, seed=9, means_seed=8)
        assert len(calls) == 1
        assert train_ds.features.tobytes() == one_shot_mixture(30, 4, 5, 4.0, 8, 8).tobytes()
        assert test_ds.features.tobytes() == one_shot_mixture(30, 4, 2, 4.0, 9, 8).tobytes()

    def test_cached_means_are_read_only(self):
        means = datasets._mixture_means(12, 3, 4.0, 0)
        with pytest.raises(ValueError):
            means[0, 0] = 1.0


class TestScreenedMinDistance:
    """``_min_pairwise_distance`` returns the bits of every block computed (helpers.blocked_min_distance)."""

    @pytest.mark.parametrize(
        "C,d",
        [
            (2, 2),  # C <= d: QR directions, held in Fortran order
            (7, 9),
            (16, 16),  # C == d: every distance ties at sqrt(2)
            (24, 24),
            (10, 64),  # Fortran order at dim >= 64
            (48, 64),
            (64, 64),
            (30, 100),
            (45, 3),  # C > d: normalised draws, in C order
            (29, 4),  # the last row falls in no Gram block of the screen
            (120, 2),
            (200, 16),
            (300, 8),
        ],
    )
    @pytest.mark.parametrize("block_rows", [None, 1, 7])
    def test_mixture_means_keep_the_blocked_bits(self, monkeypatch, C, d, block_rows):
        if block_rows is not None:  # exact blocks of that many rows; the last one may be short
            monkeypatch.setattr(datasets, "_BLOCK_BYTES", block_rows * C * d * 8)
        real, seen = datasets._min_pairwise_distance, []

        def checked(means):
            got = real(means)
            assert means.flags.f_contiguous == (C <= d)
            assert got.tobytes() == blocked_min_distance(means, datasets._BLOCK_BYTES).tobytes()
            seen.append(got)
            return got

        monkeypatch.setattr(datasets, "_min_pairwise_distance", checked)
        for seed in range(20):
            datasets._mixture_means.__wrapped__(C, d, 4.0, seed)
        assert len(seen) == 20
        if C == d:
            assert all(abs(got - math.sqrt(2)) < 1e-14 for got in seen)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("block_rows", [1, 7])
    @pytest.mark.parametrize("nudged", ["closest pair copied", "row copied"])
    def test_a_pair_one_ulp_off_keeps_the_blocked_bits(self, monkeypatch, order, block_rows, nudged):
        C, d = 60, 5
        monkeypatch.setattr(datasets, "_BLOCK_BYTES", block_rows * C * d * 8)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = rng.normal(size=(C - 2, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            dists = np.linalg.norm(rows[:, None] - rows[None], axis=2) + np.diag(np.full(C - 2, np.inf))
            i, j = np.unravel_index(np.argmin(dists), dists.shape)
            # the last two rows repeat the closest pair, or the closest pair's first row
            # twice, with one coordinate of the second copy one ulp up or down
            extra = rows[[i, j if nudged == "closest pair copied" else i]]
            k = seed % d
            extra[1, k] = np.nextafter(extra[1, k], np.inf if seed % 2 else -np.inf)
            means = np.asarray(np.concatenate([rows, extra]), order=order)
            expected = blocked_min_distance(means, datasets._BLOCK_BYTES)
            assert datasets._min_pairwise_distance(means).tobytes() == expected.tobytes()

    def test_peak_memory_stays_within_three_mb(self):
        means = np.random.default_rng(0).normal(size=(3000, 16))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            got = datasets._min_pairwise_distance(means)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == blocked_min_distance(means, datasets._BLOCK_BYTES).tobytes()
        assert peak <= 3 * 2**20


class TestMilBags:
    def test_full_rate_means_positive_bags_are_pure(self):
        bags = make_mil_bags(20, 30, positive_instance_rate=1.0, seed=0)
        _, inherited, truth = bags.flatten()
        np.testing.assert_array_equal(inherited, truth)

    def test_expected_positive_count_per_bag(self):
        bags = make_mil_bags(200, 50, positive_instance_rate=0.2, seed=1)
        pos_bags = [t for t, lab in zip(bags.instance_truth, bags.bag_labels) if lab == 1]
        mean_pos = np.mean([t.sum() for t in pos_bags])
        # Binomial(50, 0.2): mean 10, sd over 100 bags ~ 0.28
        assert abs(mean_pos - 10.0) < 1.5

    def test_every_negative_bag_is_pure(self):
        bags = make_mil_bags(40, 25, positive_instance_rate=0.3, seed=2)
        for label, truth in zip(bags.bag_labels, bags.instance_truth):
            if label == 0:
                assert not truth.any()

    def test_positive_bags_never_empty_of_positives(self):
        bags = make_mil_bags(300, 3, positive_instance_rate=0.05, seed=3)
        for label, truth in zip(bags.bag_labels, bags.instance_truth):
            if label == 1:
                assert truth.any()

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            make_mil_bags(10, 10, positive_instance_rate=0.0)
        with pytest.raises(ValueError):
            make_mil_bags(10, 10, positive_instance_rate=1.2)

    def test_determinism(self):
        a = make_mil_bags(12, 9, 0.4, seed=7)
        b = make_mil_bags(12, 9, 0.4, seed=7)
        for xa, xb in zip(a.bags, b.bags):
            np.testing.assert_array_equal(xa, xb)


@pytest.mark.parametrize(
    "builder,kwargs,name",
    [
        (make_ring, {"class_count": 2}, "class_count"),
        (make_ring, {"angular_noise_std": 1e308}, "angular_noise_std"),
        (make_gaussian_mixture, {"class_count": 0}, "class_count"),
        (make_gaussian_mixture, {"class_count": 1, "dim": 0}, "dim"),
        (make_gaussian_mixture, {"class_count": 2, "dim": 1}, "dim"),
        (make_gaussian_mixture, {"class_count": 20, "dim": 2, "class_separation": 1e308}, "class_separation"),
        (make_mil_bags, {"n_bags": 1, "bag_size": 5, "positive_instance_rate": 0.5}, "n_bags"),
        (make_mil_bags, {"n_bags": 4, "bag_size": 0, "positive_instance_rate": 0.5}, "bag_size"),
        (make_mil_bags, {"n_bags": 4, "bag_size": 5, "positive_instance_rate": 0.0}, "positive_instance_rate"),
        (make_mil_bags, {"n_bags": 4, "bag_size": 5, "positive_instance_rate": 1.5}, "positive_instance_rate"),
        (q_ordinal, {"class_count": 8, "window": -1}, "window"),
        (q_ordinal, {"class_count": 8, "window": 8}, "window"),
    ],
)
def test_a_builder_error_starts_with_the_argument_at_fault(builder, kwargs, name):
    # the experiments re-raise it under its config key, so the first word must be the argument's name
    with pytest.raises(ValueError) as info:
        builder(**kwargs)
    assert str(info.value).split()[0] == name
    assert str(kwargs[name]) in str(info.value)
