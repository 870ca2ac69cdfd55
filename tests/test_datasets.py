"""Tests for the synthetic dataset generators."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from dualmargin import (
    LossParams,
    datasets,
    TrainConfig,
    make_gaussian_mixture,
    make_mil_bags,
    make_ordinal_line,
    make_ring,
    train,
)


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
        if block_rows is not None:  # blocks of that many rows; the last one may be short
            monkeypatch.setattr(datasets, "_BLOCK_BYTES", block_rows * C * d * 8)
        for seed, means_seed in ((3, None), (4, 3)):
            ds = make_gaussian_mixture(C, dim=d, n_per_class=3, class_separation=sep, seed=seed, means_seed=means_seed)
            expected = one_shot_mixture(C, d, 3, sep, seed, means_seed)
            assert ds.features.tobytes() == expected.tobytes()


class TestOrdinalLine:
    def test_centers_sit_at_class_indices(self):
        C = 6
        ds = make_ordinal_line(C, n_per_class=4000, overlap_std=0.5, seed=1)
        for c in range(C):
            center = ds.features[ds.clean_labels == c, 0].mean()
            assert abs(center - c) < 0.05

    def test_tiny_overlap_classifies_by_rounding(self):
        ds = make_ordinal_line(5, n_per_class=500, overlap_std=0.05, seed=2)
        rounded = np.clip(np.round(ds.features[:, 0]), 0, 4).astype(int)
        np.testing.assert_array_equal(rounded, ds.clean_labels)

    def test_confusion_is_adjacent_and_matches_tail_mass(self):
        C, std, n_per = 10, 0.4, 3000
        ds = make_ordinal_line(C, n_per_class=n_per, overlap_std=std, seed=3)
        nearest = np.clip(np.round(ds.features[:, 0]), 0, C - 1).astype(int)
        crossed = (nearest != ds.clean_labels).mean()
        # interior classes cross on both sides, edge classes on one
        tail = stats.norm.cdf(-0.5 / std)
        expected = ((C - 2) * 2 * tail + 2 * tail) / C
        sigma = math.sqrt(expected * (1 - expected) / (C * n_per))
        assert abs(crossed - expected) < 4 * sigma
        dist = np.abs(nearest - ds.clean_labels)
        assert (dist >= 2).mean() < 1e-3

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            make_ordinal_line(1)


class TestMilBags:
    def test_full_rate_means_positive_bags_are_pure(self):
        bags = make_mil_bags(20, 30, positive_instance_rate=1.0, seed=0)
        _, inherited, truth, _ = bags.flatten()
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
