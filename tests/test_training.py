"""Tests for the trainer: determinism, CE equivalence, backprop, metrics."""

import tracemalloc
import warnings

import numpy as np
import pytest

from dualmargin import (
    LabeledDataset,
    LossParams,
    ModelParams,
    TrainConfig,
    TrainingDivergedError,
    diagonal_mass,
    evaluate,
    make_gaussian_mixture,
    make_mil_bags,
    make_ring,
    q_mil,
    train,
    train_mil_instances,
)
from dualmargin import training
from dualmargin.loss import batch_loss, sets_from_q
from dualmargin.training import _backward, _blocks, _forward, init_model, predict_logits
from helpers import counts_from_dense, dense_counts, per_layer_sgd


def same_group(groups):
    """Q marking the classes of one group as mutually plausible."""
    g = np.asarray(groups)
    return g[:, None] == g[None, :]


def folded(model, X):
    """``model`` rebuilt as ``train`` holds it, each layer one block of one flat
    array with the bias last, and the blocks and layer inputs of batch ``X``,
    whose hidden columns ``_forward`` fills."""
    flat = np.concatenate([np.vstack((w, b)).ravel() for w, b in zip(model.weights, model.biases)])
    blocks = _blocks(flat, model)
    model.weights, model.biases = [block[:-1] for block in blocks], [block[-1] for block in blocks]
    inputs = [np.ones((len(X), block.shape[0])) for block in blocks]
    inputs[0][:, :-1] = X
    return blocks, inputs


def separable_mixture(seed=0):
    train_ds = make_gaussian_mixture(4, dim=8, n_per_class=200, class_separation=8.0, seed=seed)
    test_ds = make_gaussian_mixture(
        4, dim=8, n_per_class=200, class_separation=8.0, seed=seed + 77, means_seed=seed
    )
    return train_ds, test_ds


class TestTraining:
    def test_clean_ce_reaches_high_accuracy(self):
        data, test = separable_mixture()
        cfg = TrainConfig(learning_rate=0.1, epochs=25, batch_size=128, seed=1)
        _, report = train(data, None, cfg, test_data=test)
        assert report.clean_test_accuracy > 0.99

    def test_final_loss_below_initial_on_separable_data(self):
        data, _ = separable_mixture()
        cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=64, seed=2)
        _, report = train(data, None, cfg)
        assert report.train_curve[-1] < report.train_curve[0]

    def test_ce_and_unit_alpha_zero_beta_share_the_trajectory(self):
        # independent implementations, same optimum path: per-epoch losses
        # and final parameters agree to 1e-9
        data, test = separable_mixture()
        q = np.eye(4, dtype=bool)
        common = dict(learning_rate=0.05, epochs=8, batch_size=64, seed=3)
        _, ce_report = train(data, None, TrainConfig(**common), test_data=test)
        model_dual, dual_report = train(
            data,
            q,
            TrainConfig(loss_params=LossParams(1.0, 0.0, allow_degenerate=True), **common),
            test_data=test,
        )
        curve_ce = np.array(ce_report.train_curve)
        curve_dual = np.array(dual_report.train_curve)
        np.testing.assert_allclose(curve_ce, curve_dual, atol=1e-9)
        model_ce, _ = train(data, None, TrainConfig(**common), test_data=test)
        for w_ce, w_dual in zip(model_ce.weights, model_dual.weights):
            np.testing.assert_allclose(w_ce, w_dual, atol=1e-9)

    def test_bitwise_determinism(self):
        data, test = separable_mixture()
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=64, seed=9, architecture="mlp1", hidden_units=16)
        m1, r1 = train(data, None, cfg, test_data=test)
        m2, r2 = train(data, None, cfg, test_data=test)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            np.testing.assert_array_equal(a, b)
        assert r1.train_curve == r2.train_curve
        assert r1.clean_test_accuracy == r2.clean_test_accuracy

    def test_divergence_raises_with_diagnostic(self):
        features = np.full((32, 4), 1e160)
        labels = np.arange(32) % 2
        data = LabeledDataset(features=features, clean_labels=labels, class_count=2)
        cfg = TrainConfig(learning_rate=1.0, epochs=3, batch_size=16, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow warning first
            with pytest.raises(TrainingDivergedError, match="epoch"):
                train(data, None, cfg)

    def test_divergence_on_the_last_step_raises(self):
        # one step whose update overflows the weights; no later step sees it
        data = make_gaussian_mixture(4, dim=3, n_per_class=10, class_separation=4.0, seed=0)
        cfg = TrainConfig(learning_rate=1e308, epochs=1, batch_size=64, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError, match="weights"):
                train(data, None, cfg)

    @pytest.mark.parametrize("loss_params", [None, LossParams(0.5, 5.0)])
    def test_divergence_mid_epoch_warns_nothing_and_restores_the_error_state(self, loss_params):
        data = make_gaussian_mixture(4, dim=3, n_per_class=40, class_separation=4.0, seed=0)
        cfg = TrainConfig(learning_rate=1e307, epochs=2, batch_size=16, seed=0, loss_params=loss_params)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError, match="non-finite logits at epoch 0, batch offset 16 "):
                train(data, np.eye(4, dtype=bool), cfg)
        assert np.geterr() == before

    def test_an_epoch_loss_sum_past_the_float_range_raises(self, monkeypatch):
        # finite batch means whose sum over the epoch's samples overflows
        data = make_gaussian_mixture(4, dim=3, n_per_class=10, class_separation=4.0, seed=0)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=0, loss_params=LossParams(0.5, 5.0))
        monkeypatch.setattr(training, "batch_loss_and_grad", lambda logits, *_: (1e308, np.zeros_like(logits)))
        with pytest.raises(TrainingDivergedError, match=r"non-finite loss sum inf at epoch 0 \(lr=0.1, "):
            train(data, np.eye(4, dtype=bool), cfg)

    def test_dual_margin_requires_q(self):
        data, _ = separable_mixture()
        cfg = TrainConfig(
            learning_rate=0.1, epochs=1, batch_size=64, seed=0, loss_params=LossParams(0.1, 10.0),
        )
        with pytest.raises(ValueError):
            train(data, None, cfg)

    def test_cross_entropy_with_q_reports_masses_and_checks_shape(self):
        data, test = separable_mixture()
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=64, seed=0)
        model, report = train(data, np.eye(4, dtype=bool), cfg, test_data=test)
        assert report.mean_mass == evaluate(model, test, q=np.eye(4, dtype=bool)).mean_mass
        with pytest.raises(ValueError, match="Q shape"):
            train(data, np.eye(3, dtype=bool), cfg)

    def test_cosine_schedule_trains(self):
        data, test = separable_mixture()
        cfg = TrainConfig(learning_rate=0.1, epochs=10, batch_size=64, seed=4, lr_schedule="cosine")
        _, report = train(data, None, cfg, test_data=test)
        assert report.clean_test_accuracy > 0.95


class TestBackprop:
    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_weight_gradients_match_finite_differences(self, architecture):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 3))
        y = rng.integers(0, 4, size=7)
        q = rng.random((4, 4)) < 0.5
        params = LossParams(0.6, 3.0)
        model = init_model([3, 4] if architecture == "linear" else [3, 5, 4], rng)

        def total_loss(m):
            return batch_loss(predict_logits(m, X), y, q, params)

        blocks, inputs = folded(model, X)
        from dualmargin.loss import batch_loss_and_grad

        _, g_logits = batch_loss_and_grad(_forward(blocks, inputs), y, q, params)
        grads = _backward(blocks, inputs, g_logits)

        h = 1e-6
        for arr, grad in zip(model.weights + model.biases, [g[:-1] for g in grads] + [g[-1] for g in grads]):
            flat = arr.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = total_loss(model)
                flat[k] = orig - h
                down = total_loss(model)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - grad.ravel()[k]) < 1e-6 * max(1.0, abs(fd))


class TestFlatStep:
    """train keeps the layers, gradients and momentum in flat arrays; each bit is the per-layer loop's."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("lr_schedule", ["constant", "cosine"])
    @pytest.mark.parametrize("loss_params", [None, LossParams(0.3, 5.0)])
    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_train_has_the_bits_of_the_per_layer_loop(self, architecture, loss_params, lr_schedule, momentum):
        # 100 samples in batches of 32: the last batch holds 4
        data = make_gaussian_mixture(4, dim=3, n_per_class=25, class_separation=3.0, seed=5)
        q = same_group([0, 0, 1, 1])
        cfg = TrainConfig(
            learning_rate=0.2, epochs=3, batch_size=32, seed=4, momentum=momentum, loss_params=loss_params,
            lr_schedule=lr_schedule, architecture=architecture, hidden_units=6,
        )
        model, report = train(data, q, cfg)
        want_layers, want_curve = per_layer_sgd(data, q, cfg)
        layers = model.weights + model.biases
        assert [p.tobytes() for p in layers] == [p.tobytes() for p in want_layers]
        assert report.train_curve == want_curve
        flat = layers[0].base
        assert flat is not None and all(p.base is flat for p in layers)

    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_backward_into_views_has_the_bits_of_new_arrays(self, architecture):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 3))
        model = init_model([3, 4] if architecture == "linear" else [3, 5, 4], rng)
        blocks, inputs = folded(model, X)
        grad = rng.normal(size=_forward(blocks, inputs).shape)
        out = _blocks(np.full(sum(block.size for block in blocks), np.nan), model)
        views = list(out)
        grads = _backward(blocks, inputs, grad, out=out)
        assert grads is out and all(g is v for g, v in zip(grads, views))
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in _backward(blocks, inputs, grad)]

    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_each_layer_is_one_block_with_the_bias_last(self, architecture):
        data = make_gaussian_mixture(10, dim=16, n_per_class=20, class_separation=3.0, seed=2)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=64, seed=1, architecture=architecture, hidden_units=8)
        model, _ = train(data, None, cfg)
        flat = model.weights[0].base
        start = 0
        for w, b in zip(model.weights, model.biases):
            assert w.base is flat and b.base is flat and w.flags.c_contiguous
            block = flat[start : start + w.size + b.size].reshape(-1, b.size)
            assert block.shape == (w.shape[0] + 1, w.shape[1])
            for part, rows in ((w, block[:-1]), (b, block[-1])):
                assert part.__array_interface__ == rows.__array_interface__
            start += block.size
        assert start == flat.size

    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_prediction_adds_each_bias_after_its_product(self, architecture):
        # at these widths a product with the bias folded in rounds some logits otherwise
        data = make_gaussian_mixture(10, dim=16, n_per_class=20, class_separation=3.0, seed=2)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=64, seed=1, architecture=architecture, hidden_units=16)
        model, _ = train(data, None, cfg)
        X = data.features
        want = X @ model.weights[0] + model.biases[0]
        if architecture == "mlp1":
            want = np.tanh(want) @ model.weights[1] + model.biases[1]
        assert predict_logits(model, X).tobytes() == want.tobytes()


class TestQLayout:
    @pytest.mark.parametrize("loss", ["cross_entropy", "dual_margin"])
    def test_c_and_fortran_ordered_q_give_identical_runs(self, monkeypatch, loss):
        data, test = separable_mixture()
        q = same_group([0, 0, 1, 1])
        loss_params = None if loss == "cross_entropy" else LossParams(0.1, 10.0)
        cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=64, seed=4, loss_params=loss_params)
        seen = []
        real = training.batch_loss_and_grad

        def recording(Z, targets, q_arg, params):
            seen.append(q_arg.flags.f_contiguous)
            return real(Z, targets, q_arg, params)

        monkeypatch.setattr(training, "batch_loss_and_grad", recording)
        (model_c, report_c), (model_f, report_f) = (
            train(data, layout(q), cfg, test_data=test) for layout in (np.ascontiguousarray, np.asfortranarray)
        )
        for a, b in zip(model_c.weights + model_c.biases, model_f.weights + model_f.biases):
            assert a.tobytes() == b.tobytes()
        assert report_c.train_curve == report_f.train_curve
        assert report_c.clean_test_accuracy == report_f.clean_test_accuracy
        np.testing.assert_array_equal(dense_counts(report_c.confusion_matrix), dense_counts(report_f.confusion_matrix))
        assert report_c.mean_mass == report_f.mean_mass
        # the loss gathers Q's columns, so train hands it Q in Fortran order
        assert all(seen) and len(seen) == (0 if loss == "cross_entropy" else 2 * 3 * 13)


class TestEvaluate:
    def test_confusion_rows_sum_to_class_counts(self):
        data, test = separable_mixture()
        cfg = TrainConfig(learning_rate=0.1, epochs=5, batch_size=64, seed=5)
        model, _ = train(data, None, cfg)
        report = evaluate(model, test)
        counts = np.bincount(test.clean_labels, minlength=test.class_count)
        confusion = report.confusion_matrix
        assert np.all(np.diff(confusion.cells) > 0) and np.all(confusion.counts > 0)
        np.testing.assert_array_equal(dense_counts(confusion).sum(axis=1), counts)

    def test_report_holds_the_diagonal_mass_of_its_confusion(self):
        data, test = separable_mixture()
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=64, seed=5)
        model, _ = train(data, None, cfg)
        report = evaluate(model, test)
        assert report.diagonal_mass == diagonal_mass(report.confusion_matrix)

    def test_near_perfect_model_has_diagonal_confusion(self):
        ring = make_ring(8, 100, angular_noise_std=0.0, seed=0)
        cfg = TrainConfig(learning_rate=0.5, epochs=60, batch_size=64, seed=0)
        model, _ = train(ring, None, cfg)
        report = evaluate(model, ring)
        assert report.clean_test_accuracy > 0.98
        confusion = dense_counts(report.confusion_matrix)
        off_diag = confusion.sum() - np.trace(confusion)
        assert off_diag <= 0.02 * ring.features.shape[0]

    def test_uniform_logits_tie_break_to_lowest_index(self):
        data, _ = separable_mixture()
        model = ModelParams(
            weights=[np.zeros((data.features.shape[1], data.class_count))],
            biases=[np.zeros(data.class_count)],
        )
        report = evaluate(model, data)
        class0_rate = (data.clean_labels == 0).mean()
        assert report.clean_test_accuracy == pytest.approx(class0_rate, abs=0)
        assert dense_counts(report.confusion_matrix)[:, 1:].sum() == 0

    def test_mass_diagnostics_partition_unity(self):
        data, test = separable_mixture()
        q = np.eye(4, dtype=bool)
        cfg = TrainConfig(learning_rate=0.1, epochs=5, batch_size=64, seed=6)
        model, _ = train(data, None, cfg)
        report = evaluate(model, test, q=q)
        mm = report.mean_mass
        assert mm["p_target"] <= mm["p_plausible"] + 1e-12
        assert mm["p_plausible"] + mm["p_implausible"] == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def where_formula(model, data, q):
        """Accuracy, confusion and masses as computed with np.where temporaries."""
        X = data.features
        if len(model.weights) == 1:
            logits = X @ model.weights[0] + model.biases[0]
        else:
            hidden = np.tanh(X @ model.weights[0] + model.biases[0])
            logits = hidden @ model.weights[1] + model.biases[1]
        preds = np.argmax(logits, axis=1)
        labels = data.clean_labels
        confusion = np.zeros((data.class_count, data.class_count), dtype=int)
        np.add.at(confusion, (labels, preds), 1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        masks = sets_from_q(q, labels)
        masses = [
            probs[np.arange(labels.size), labels].mean(),
            np.where(masks, probs, 0.0).sum(axis=1).mean(),
            np.where(masks, 0.0, probs).sum(axis=1).mean(),
        ]
        return float((preds == labels).mean()), confusion, np.array(masses)

    @pytest.mark.parametrize("kind", ["trained", "mlp1", "overflowing"])
    def test_matches_where_formula_bit_for_bit(self, kind):
        data, test = separable_mixture()
        q = same_group([0, 0, 1, 1])
        if kind == "trained":
            model, _ = train(data, None, TrainConfig(learning_rate=0.1, epochs=3, batch_size=64, seed=2))
        else:
            hidden = [8] if kind == "mlp1" else []
            model = init_model([data.features.shape[1], *hidden, 4], np.random.default_rng(3))
        if kind == "overflowing":  # finite weights, logits of +-inf: the run diverged, unscored
            model.weights[0] = np.sign(model.weights[0]) * 1e308
            with pytest.raises(TrainingDivergedError, match="non-finite logits at evaluation"):
                evaluate(model, test, q=q)
            return
        with np.errstate(all="ignore"):
            report = evaluate(model, test, q=q)
            accuracy, confusion, masses = self.where_formula(model, test, q)
        assert report.clean_test_accuracy == accuracy
        np.testing.assert_array_equal(dense_counts(report.confusion_matrix), confusion)
        got = np.array([report.mean_mass[k] for k in ("p_target", "p_plausible", "p_implausible")])
        assert got.tobytes() == masses.tobytes()

    @staticmethod
    def dyadic_case(n, C, d=8, seed=0):
        """A linear model and data on a dyadic grid: every logit is an exact
        sum, so no BLAS kernel choice or summation order can change it."""
        rng = np.random.default_rng(seed)
        model = ModelParams(
            weights=[rng.integers(-8, 9, size=(d, C)) / 8.0],
            biases=[rng.integers(-8, 9, size=C) / 16.0],
        )
        features = rng.integers(-16, 17, size=(n, d)) / 4.0
        data = LabeledDataset(features=features, clean_labels=rng.integers(0, C, size=n), class_count=C)
        return model, data

    @pytest.mark.parametrize("with_q", [False, True])
    @pytest.mark.parametrize("n,C,block_rows", [(800, 4, 1), (800, 4, 7), (50, 30, 7), (3000, 1000, None)])
    def test_blocks_match_one_pass_bit_for_bit(self, monkeypatch, n, C, block_rows, with_q):
        # block heights 1 and 7 (800 = 114 * 7 + 2); by default 3000 x 1000
        # logits are 12 blocks of 250 rows
        if block_rows is not None:
            monkeypatch.setattr(training, "_EVAL_BLOCK_BYTES", block_rows * C * 8)
        model, data = self.dyadic_case(n, C)
        q = same_group(np.arange(C) // 3) if with_q else None
        report = evaluate(model, data, q=q)
        accuracy, confusion, masses = self.where_formula(model, data, q if with_q else np.eye(C, dtype=bool))
        assert report.clean_test_accuracy == accuracy
        np.testing.assert_array_equal(dense_counts(report.confusion_matrix), confusion)
        if with_q:
            got = np.array([report.mean_mass[k] for k in ("p_target", "p_plausible", "p_implausible")])
            assert got.tobytes() == masses.tobytes()
        else:
            assert report.mean_mass is None

    @pytest.mark.parametrize("with_q", [False, True])
    def test_empty_split(self, with_q):
        model, data = self.dyadic_case(0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the mean of no rows
            report = evaluate(model, data, q=np.eye(5, dtype=bool) if with_q else None)
        assert report.clean_test_accuracy == 0.0
        np.testing.assert_array_equal(dense_counts(report.confusion_matrix), np.zeros((5, 5), dtype=int))
        if with_q:
            assert all(np.isnan(v) for v in report.mean_mass.values())
        else:
            assert report.mean_mass is None

    def test_logits_spanning_more_than_the_float_range_score_without_warning(self):
        # the softmax's shift overflows to -inf, whose exp is 0; a warning fails the test
        data = LabeledDataset(features=np.ones((2, 1)), clean_labels=np.array([0, 1]), class_count=2)
        model = ModelParams(weights=[np.array([[1e308, -1e308]])], biases=[np.zeros(2)])
        report = evaluate(model, data, q=np.eye(2, dtype=bool))
        assert report.clean_test_accuracy == 0.5
        assert report.mean_mass == {"p_target": 0.5, "p_plausible": 0.5, "p_implausible": 0.5}

    def test_peak_memory_is_a_few_blocks(self):
        # one pass would hold 160 MB (n, C) float arrays
        n, C, d = 20000, 1000, 16
        rng = np.random.default_rng(0)
        data = LabeledDataset(features=rng.normal(size=(n, d)), clean_labels=rng.integers(0, C, size=n), class_count=C)
        model = init_model([d, C], rng)
        q = same_group(np.arange(C) // 10)
        tracemalloc.start()
        try:
            evaluate(model, data, q=q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block's logits and probabilities (1 MB each), its masks, the
        # per-row results and the sparse counts; no C x C array (8 MB)
        assert peak <= 5 << 20

    def test_diagonal_mass_of_identity_confusion(self):
        assert diagonal_mass(counts_from_dense(np.diag([5, 3, 2]))) == pytest.approx(3.0)
        assert diagonal_mass(counts_from_dense(np.array([[1, 1], [0, 0]]))) == pytest.approx(0.5)

    @pytest.mark.parametrize("C", [1, 7, 300])
    def test_diagonal_mass_has_the_dense_formula_bits(self, C):
        rng = np.random.default_rng(C)
        confusion = rng.integers(0, 4, size=(C, C)) * (rng.random((C, C)) < 0.1)
        confusion[C // 2] = 0  # an empty row
        row_sums = confusion.sum(axis=1, dtype=np.float64)
        dense = float((np.diag(confusion) / np.where(row_sums > 0, row_sums, 1.0)).sum())
        assert diagonal_mass(counts_from_dense(confusion)) == dense


def hierarchy_mixture(seed):
    """Three groups of two classes: tight within-group, far between-group."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((3, 8))
    centers[0, 0] = centers[1, 1] = centers[2, 2] = 6.0
    offsets = np.zeros((2, 8))
    offsets[0, 3] = 0.9
    offsets[1, 3] = -0.9
    means = np.array([centers[g] + offsets[m] for g in range(3) for m in range(2)])
    labels = np.repeat(np.arange(6), 150)
    features = means[labels] + rng.normal(size=(labels.size, 8))
    return LabeledDataset(features=features, clean_labels=labels, class_count=6)


class TestMassDirection:
    def test_dual_margin_packs_mass_into_the_plausible_set(self):
        data = hierarchy_mixture(seed=0)
        test = hierarchy_mixture(seed=1)
        q = same_group([0, 0, 1, 1, 2, 2])
        common = dict(learning_rate=0.1, epochs=40, batch_size=128, seed=0)
        model_ce, _ = train(data, None, TrainConfig(**common))
        model_dual, _ = train(
            data, q,
            TrainConfig(loss_params=LossParams(0.1, 10.0), **common),
        )
        ce = evaluate(model_ce, test, q=q).mean_mass
        dual = evaluate(model_dual, test, q=q).mean_mass
        assert dual["p_plausible"] > ce["p_plausible"]
        assert dual["p_implausible"] < ce["p_implausible"]


class TestMilTraining:
    def test_pure_positive_bags_train_both_losses_well(self):
        bags = make_mil_bags(40, 30, positive_instance_rate=1.0, dim=2, seed=0, separation=4.0)
        common = dict(learning_rate=0.2, epochs=30, batch_size=128, seed=0)
        ce = train_mil_instances(bags, TrainConfig(**common))
        dual = train_mil_instances(
            bags,
            TrainConfig(loss_params=LossParams(1.0, 1.0), **common),
            q=q_mil(),
        )
        assert ce.clean_test_accuracy > 0.9
        assert dual.clean_test_accuracy > 0.9
        for report in (ce, dual):
            # pure positive bags have no mislabeled population to score
            assert report.extras["recall_negative_in_positive_bags"] is None

    def test_extras_report_instance_recalls(self):
        bags = make_mil_bags(20, 20, positive_instance_rate=0.3, dim=2, seed=1)
        cfg = TrainConfig(learning_rate=0.2, epochs=10, batch_size=64, seed=1)
        report = train_mil_instances(bags, cfg)
        assert set(report.extras) >= {
            "recall_negative",
            "recall_positive",
            "recall_negative_in_positive_bags",
        }

    def test_negative_in_positive_bags_recall_counts_bag_by_bag(self):
        bags = make_mil_bags(12, 15, positive_instance_rate=0.3, dim=2, seed=3)
        assert set(bags.bag_labels) == {0, 1}
        cfg = TrainConfig(learning_rate=0.2, epochs=10, batch_size=64, seed=2, loss_params=LossParams(1.0, 1.0))
        report = train_mil_instances(bags, cfg, q=q_mil())
        # the same instances and supervision give the same model
        X, inherited, truth = bags.flatten()
        model, alone = train(LabeledDataset(X, truth, 2, noisy_labels=inherited), q_mil(), cfg)
        assert alone.clean_test_accuracy == report.clean_test_accuracy
        preds = np.argmax(predict_logits(model, X), axis=1)
        hits = total = lo = 0
        for label, instance_truth in zip(bags.bag_labels, bags.instance_truth):
            bag_preds, lo = preds[lo : lo + instance_truth.size], lo + instance_truth.size
            if label == 1:
                hits += int(np.sum(bag_preds[instance_truth == 0] == 0))
                total += int(np.sum(instance_truth == 0))
        assert total > 0
        assert report.extras["recall_negative_in_positive_bags"] == hits / total


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", 0.0),
            ("epochs", 0),
            ("batch_size", 0),
            ("momentum", 1.0),
            ("hidden_units", 0),
            ("lr_schedule", "step"),
            ("architecture", "cnn"),
        ],
    )
    def test_each_message_starts_with_the_field_it_rejects(self, field, value):
        kwargs = {"learning_rate": 0.1, "epochs": 1, "batch_size": 1, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be .*, got {value!r}$"):
            TrainConfig(**kwargs)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0, epochs=1, batch_size=1, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, epochs=0, batch_size=1, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, seed=0, momentum=1.0)
        # init_model would raise OverflowError on a zero-width hidden layer
        with pytest.raises(ValueError, match="hidden_units"):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, seed=0, architecture="mlp1", hidden_units=0)
