"""CLI contract tests: exit codes, golden output, artifacts, determinism."""

import csv
import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualmargin import LossParams, cli, experiments, loss_from_logits, training
from dualmargin.cli import main
from dualmargin.plausibility import load_q_text
from helpers import counts_from_dense, dense_counts


@pytest.fixture
def loss_eval_files(tmp_path):
    z_path = tmp_path / "z.txt"
    z_path.write_text("2.0 1.0 0.0 -1.0\n")
    q_path = tmp_path / "q.txt"
    q_path.write_text("1 1 0 0\n1 1 1 0\n0 1 1 1\n0 0 1 1\n")  # a band of width 1 that does not wrap
    return z_path, q_path


def run_cli(args, capsys):
    try:
        code = main([str(a) for a in args])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLossEval:
    def test_ce_reduction_prints_ln2(self, tmp_path, capsys):
        z_path = tmp_path / "z.txt"
        z_path.write_text("0.0 0.0\n")
        q_path = tmp_path / "q.txt"
        q_path.write_text("1 0\n0 1\n")
        code, out, _ = run_cli(
            ["loss-eval", z_path, q_path, "--target", "0", "--alpha", "1", "--beta", "0"], capsys
        )
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["loss"]) == pytest.approx(np.log(2.0), abs=1e-15)
        assert float(fields["set_term"]) == -np.inf

    def test_output_matches_library_bit_for_bit(self, loss_eval_files, capsys):
        z_path, q_path = loss_eval_files
        code, out, _ = run_cli(
            ["loss-eval", z_path, q_path, "--target", "0", "--alpha", "0.1", "--beta", "10"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        z = np.array([2.0, 1.0, 0.0, -1.0])
        expected = loss_from_logits(z, 0, load_q_text(q_path), LossParams(0.1, 10.0, allow_degenerate=True))
        for key, value in expected.as_dict().items():
            assert float(fields[key]) == value  # %.17g round-trips float64 exactly

    def test_malformed_q_exits_2_and_names_row(self, tmp_path, capsys):
        z_path = tmp_path / "z.txt"
        z_path.write_text("0.0 0.0\n")
        q_path = tmp_path / "q.txt"
        q_path.write_text("1 0\n1 2\n")
        code, _, err = run_cli(["loss-eval", z_path, q_path, "--target", "0"], capsys)
        assert code == 2
        assert "row 1" in err

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        z_path = tmp_path / "z.txt"
        z_path.write_text("0.0 0.0 0.0\n")
        q_path = tmp_path / "q.txt"
        q_path.write_text("1 0\n0 1\n")
        code, _, err = run_cli(["loss-eval", z_path, q_path, "--target", "0"], capsys)
        assert code == 2
        assert "logits" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        q_path = tmp_path / "q.txt"
        q_path.write_text("1\n")
        code, _, err = run_cli(["loss-eval", tmp_path / "none.txt", q_path, "--target", "0"], capsys)
        assert code == 2

    def test_repeated_runs_are_identical(self, loss_eval_files, capsys):
        z_path, q_path = loss_eval_files
        args = ["loss-eval", z_path, q_path, "--target", "1", "--alpha", "0.3", "--beta", "2"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


TINY_TOY2D = {
    "seeds": [0],
    "dataset": {"n_per_class": 30, "n_test_per_class": 30},
    "train": {"epochs": 3, "learning_rate": 0.3},
    "grid_resolution": 7,
}


# a two-seed tiny config of each family, keyed by its command
TINY_TWO_SEEDS = {
    "toy2d": dict(TINY_TOY2D, seeds=[0, 1], train={"epochs": 1}),
    "noise-recovery": {"seeds": [0, 1], "dataset": {"n_per_class": 10, "n_test_per_class": 10}, "train": {"epochs": 1}},
    "sweep": {
        "seeds": [0, 1],
        "dataset": {"n_per_class": 10, "n_test_per_class": 10},
        "train": {"epochs": 1},
        "sweep": {"alpha_values": [0.1, 1.0], "beta_values": [1.0]},
    },
    "mil-toy": {"seeds": [0, 1], "dataset": {"n_bags": 4, "bag_size": 5}, "train": {"epochs": 1}},
}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestExperimentCommands:
    def test_toy2d_writes_all_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TOY2D)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["toy2d", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        for name in ("metrics.csv", "report.json", "manifest.json",
                     "boundary_grid_ce.txt", "boundary_grid_dual_margin.txt"):
            assert (out_dir / name).exists(), name
        grid_lines = (out_dir / "boundary_grid_ce.txt").read_text().splitlines()
        assert len(grid_lines) == 7 * 7
        report = json.loads((out_dir / "report.json").read_text())
        assert report["experiment"] == "toy2d"
        assert "0" in report["runs"]["ce"]
        assert report["failures"] == []
        for method in ("ce", "dual_margin"):
            assert set(report["summary"][method]) == {"accuracy", "diagonal_mass"}
            assert set(report["summary"][method]["accuracy"]) == {"mean", "std"}

    def test_manifest_records_hash_seeds_version(self, tmp_path, capsys):
        from dualmargin import __version__

        cfg = write_config(tmp_path, TINY_TOY2D)
        out_dir = tmp_path / "out"
        run_cli(["toy2d", "--config", cfg, "--out", out_dir], capsys)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == [0]
        assert manifest["version"] == __version__
        assert len(manifest["config_hash"]) == 64

    def test_seed_flag_overrides_seed_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TOY2D)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["toy2d", "--config", cfg, "--out", out_dir, "--seed", "3"], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == [3]

    def test_repeat_runs_byte_identical_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TOY2D)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["toy2d", "--config", cfg, "--out", out_a], capsys)
        run_cli(["toy2d", "--config", cfg, "--out", out_b], capsys)
        # the config hash leaves out output_dir, so the manifests match too
        for name in ("metrics.csv", "manifest.json", "boundary_grid_ce.txt", "boundary_grid_dual_margin.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # reports differ only in the echoed output_dir; compare without it
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        rep_a["config"].pop("output_dir")
        rep_b["config"].pop("output_dir")
        assert rep_a["runs"] == rep_b["runs"]
        assert rep_a["summary"] == rep_b["summary"]

    def test_mil_toy_tiny_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0],
                "dataset": {"n_bags": 8, "bag_size": 10},
                "train": {"epochs": 3},
            },
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["mil-toy", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        for method in ("ce", "dual_margin"):
            assert "recall_negative_in_positive_bags" in report["runs"][method]["0"]["extras"]

    def test_noise_recovery_tiny_run_emits_masses(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0],
                "dataset": {"n_per_class": 40, "n_test_per_class": 40},
                "train": {"epochs": 3},
            },
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["noise-recovery", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        metrics = (out_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("experiment,seed,method")
        assert len(metrics) == 3  # header + ce + dual_margin
        report = json.loads((out_dir / "report.json").read_text())
        assert report["runs"]["dual_margin"]["0"]["mean_mass"]["p_plausible"] > 0
        keys = {"train_curve", "clean_test_accuracy", "confusion_matrix", "diagonal_mass", "mean_mass", "extras"}
        for by_seed in report["runs"].values():
            assert all(set(record) == keys for record in by_seed.values())

    def test_sweep_tiny_run_writes_heatmap(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0],
                "dataset": {"n_per_class": 40, "n_test_per_class": 40},
                "train": {"epochs": 3},
                "sweep": {"alpha_values": [0.1, 1.0], "beta_values": [1.0]},
            },
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["sweep", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        heat = (out_dir / "heatmap.txt").read_text().splitlines()
        assert len(heat) == 2
        assert all(len(row.split()) == 1 for row in heat)

    def test_sweep_metrics_accuracies_are_plain_floats(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0],
                "dataset": {"n_per_class": 20, "n_test_per_class": 20},
                "train": {"epochs": 1},
                "sweep": {"alpha_values": [0.1], "beta_values": [1.0, 10.0]},
            },
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["sweep", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # two dual-margin cells + the CE baseline
        for row in rows:
            assert 0.0 <= float(row["accuracy"]) <= 1.0

    def test_noise_recovery_evaluates_each_run_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real_evaluate = training.evaluate

        def counting_evaluate(*args, **kwargs):
            calls.append(kwargs.get("q") is not None)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate", counting_evaluate)
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0],
                "dataset": {"n_per_class": 20, "n_test_per_class": 20},
                "train": {"epochs": 1},
            },
        )
        code, _, _ = run_cli(["noise-recovery", "--config", cfg, "--out", tmp_path / "out"], capsys)
        assert code == 0
        assert calls == [True, True]  # one evaluation with Q per (seed, method)

    def test_sweep_records_bad_cells_and_continues(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0],
                "dataset": {"n_per_class": 30, "n_test_per_class": 30},
                "train": {"epochs": 2},
                "sweep": {"alpha_values": [0.0, 1.0], "beta_values": [0.0]},
            },
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["sweep", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        # the (0, 0) cell is degenerate and is recorded as a failure
        assert len(report["failures"]) == 1
        assert report["accuracy_grid"][0][0] is None
        assert report["accuracy_grid"][1][0] is not None

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seeds": "not-a-list"})
        code, _, err = run_cli(["toy2d", "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert "seeds" in err

    @pytest.mark.parametrize(
        "flag,message",
        [("--out", "output_dir must be set"), ("--config", "cannot read config : ")],
    )
    def test_empty_out_or_config_exits_2_writing_nothing(self, tmp_path, capsys, monkeypatch, flag, message):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["toy2d", flag, ""], capsys)
        assert code == 2
        assert message in err
        assert not (tmp_path / "out_toy2d").exists()
        assert list(tmp_path.iterdir()) == []  # no output directory of any name

    def test_unparseable_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        code, _, err = run_cli(["toy2d", "--config", bad, "--out", tmp_path / "o"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "doc,key",
        [
            ({"train": {"epoch": 3}}, "epoch"),
            ({"dataset": None}, "dataset"),
            ({"epochs": 3}, "epochs"),  # a train key at the top level
            # a key a section does not have
            ({"loss": {"alpah": 3}}, "loss.alpah"),
            ({"noise": {"topolgy": "x", "eta": 0.2}}, "noise.topolgy"),
            ({"dataset": {"class_cnt": 5}}, "dataset.class_cnt"),
        ],
    )
    def test_bad_config_section_exits_2_naming_key(self, tmp_path, capsys, doc, key):
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["noise-recovery", "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert key in err
        assert not (tmp_path / "o").exists()

    def test_train_value_of_wrong_type_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"epochs": "3"}})
        code, _, err = run_cli(["toy2d", "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert "epochs" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,doc,key",
        [
            ("noise-recovery", {"dataset": {"class_count": "10"}}, "dataset.class_count"),
            ("toy2d", {"loss": {"alpha": "1"}}, "loss.alpha"),
            ("mil-toy", {"dataset": {"n_bags": 8.0}}, "dataset.n_bags"),
            ("noise-recovery", {"noise": {"eta": True}}, "noise.eta"),
            ("sweep", {"noise": {"topology": 3}}, "noise.topology"),
            ("sweep", {"sweep": {"alpha_values": [0.1, "1"]}}, "sweep.alpha_values"),
            ("sweep", {"sweep": {"beta_values": 1.0}}, "sweep.beta_values"),
            ("toy2d", {"window": "2"}, "window"),
            # the sweep reads no loss section, so it has no --alpha or --beta
            ("sweep --alpha 5 --beta 7", {}, "unrecognized arguments: --alpha 5 --beta 7"),
            ("toy2d --alpha 2", {"loss": 5}, "loss"),
            ("sweep", {"sweep": {"alpha": [1.0]}}, "sweep.alpha"),
            # the noise layout keys
            ("noise-recovery", {"noise": {"topology": "asymmetric_pairs", "pairs": 5}}, "noise.pairs"),
            ("noise-recovery", {"noise": {"topology": "asymmetric_pairs", "pairs": [[0]]}}, "noise.pairs"),
            ("noise-recovery", {"noise": {"topology": "asymmetric_pairs", "pairs": [[0, 1.0]]}}, "noise.pairs"),
            ("noise-recovery", {"noise": {"sinks": 3}}, "noise.sinks"),
            ("sweep", {"noise": {"sinks": [1, 2, 3]}}, "noise.sinks"),
            ("noise-recovery", {"noise": {"topology": "block_superclass", "group_size": "5"}}, "noise.group_size"),
            ("noise-recovery", {"noise": {"topology": "cyclic_superclass", "group_size": 2.5}}, "noise.group_size"),
        ],
    )
    def test_section_value_of_wrong_type_exits_2(self, tmp_path, capsys, command, doc, key):
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli([*command.split(), "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,doc,key",
        [
            ("toy2d", {"seeds": [True]}, "seeds"),
            ("toy2d", {"seeds": [0, -1]}, "seeds"),
            ("toy2d", {"train": {"learning_rate": math.nan}}, "train.learning_rate"),
            ("noise-recovery", {"train": {"learning_rate": math.inf}}, "train.learning_rate"),
            ("toy2d", {"loss": {"beta": -math.inf}}, "loss.beta"),
            ("mil-toy", {"dataset": {"separation": math.nan}}, "dataset.separation"),
            ("noise-recovery", {"noise": {"eta": math.inf}}, "noise.eta"),
            ("sweep", {"sweep": {"alpha_values": [0.1, math.nan]}}, "sweep.alpha_values"),
            ("toy2d", {"grid_resolution": math.nan}, "grid_resolution"),
            ("toy2d", {"seeds": [0, 0]}, "seeds"),  # runs are keyed by seed
            ("toy2d", {"grid_resolution": -1}, "grid_resolution"),
            ("toy2d", {"grid_resolution": 0}, "grid_resolution"),
            # cells are keyed by their values
            ("sweep", {"sweep": {"alpha_values": [0.1, 0.1]}}, "sweep.alpha_values"),
            ("sweep", {"sweep": {"beta_values": [1, 1.0]}}, "sweep.beta_values"),
            # dataset ints are >= 1, dataset floats >= 0
            ("noise-recovery", {"dataset": {"n_test_per_class": 0}}, "dataset.n_test_per_class"),
            ("toy2d", {"dataset": {"angular_noise_std": -1}}, "dataset.angular_noise_std"),
            ("noise-recovery", {"dataset": {"class_separation": -4}}, "dataset.class_separation"),
            ("noise-recovery", {"dataset": {"dim": 0}}, "dataset.dim"),
            ("toy2d", {"dataset": {"n_per_class": 0}}, "dataset.n_per_class"),
            ("mil-toy", {"dataset": {"bag_size": 0}}, "dataset.bag_size"),
            # values a builder would reject later, or not at all
            ("noise-recovery", {"train": {"hidden_units": 0, "architecture": "mlp1"}}, "train.hidden_units"),
            ("noise-recovery", {"train": {"hidden_units": -3}}, "train.hidden_units"),
            ("noise-recovery", {"train": {"hidden_units": -3, "architecture": "mlp1"}}, "train.hidden_units"),
            ("toy2d", {"dataset": {"class_count": 2}}, "dataset.class_count"),
            ("toy2d", {"window": 8}, "window"),
            ("mil-toy", {"dataset": {"positive_instance_rate": 1.5}}, "dataset.positive_instance_rate"),
            ("mil-toy", {"dataset": {"n_bags": 1}}, "dataset.n_bags"),
            ("mil-toy", {"dataset": {"positive_instance_rate": 0}}, "dataset.positive_instance_rate"),
            ("noise-recovery", {"noise": {"eta": 1.5}}, "noise.eta"),
            ("noise-recovery", {"train": {"momentum": 1.0}}, "train.momentum"),
            ("noise-recovery", {"train": {"batch_size": 0}}, "train.batch_size"),
            ("noise-recovery", {"loss": {"alpha": 0.0, "beta": 0.0}}, "loss.alpha"),
            ("noise-recovery", {"noise": {"topology": "block_superclass", "group_size": 3}}, "noise.group_size"),
            ("noise-recovery", {"dataset": {"class_count": 1}}, "dataset.class_count"),
            # ints too big for an int64, where numpy's message names no key
            ("noise-recovery", {"dataset": {"class_count": 10**22}}, "dataset.class_count"),
            ("noise-recovery", {"dataset": {"class_count": 10**400}}, "dataset.class_count"),
            ("noise-recovery", {"dataset": {"class_count": 2**63}}, "dataset.class_count"),
            ("mil-toy", {"dataset": {"n_bags": 10**22}}, "dataset.n_bags"),
            # a ring jitter in bounds whose angles are not all finite
            ("toy2d", {"dataset": {"angular_noise_std": 1e308}}, "dataset.angular_noise_std"),
            # a mixture separation in bounds whose class means are not all finite
            *(
                (command, {"seeds": [0], "dataset": {"class_count": 20, "dim": 2, "class_separation": 1e308}},
                 "dataset.class_separation is too large for finite class means, got 1e+308")
                for command in ("noise-recovery", "sweep")
            ),
            # a mixture on a line, where two class means can coincide
            ("noise-recovery", {"dataset": {"dim": 1}}, "dataset.dim must be >= 2 for more than one class, got 1"),
            (
                "noise-recovery",
                {"seeds": [1], "dataset": {"class_count": 2, "dim": 1}},
                "dataset.dim must be >= 2 for more than one class, got 1",
            ),
            # an int at a float key that no float can hold
            ("noise-recovery", {"train": {"learning_rate": 10**400}}, "train.learning_rate"),
            ("mil-toy", {"dataset": {"separation": 10**400}}, "dataset.separation"),
            # a layout key the topology does not read
            (
                "noise-recovery",
                {"noise": {"topology": "asymmetric_pairs", "eta": 0.3, "pairs": [[0, 1]], "sinks": [1, 2]}},
                "noise.sinks does not apply to topology 'asymmetric_pairs'",
            ),
            ("noise-recovery", {"noise": {"group_size": 5}}, "noise.group_size does not apply to topology 'column'"),
            # a layout that does not fit the class count
            ("noise-recovery", {"noise": {"topology": "asymmetric_pairs"}}, "noise.pairs"),
            ("noise-recovery", {"noise": {"topology": "asymmetric_pairs", "pairs": [[1, 2], [1, 3]]}}, "noise.pairs"),
            ("noise-recovery", {"noise": {"sinks": [3, 10]}}, "noise.sinks must be two distinct classes in [0, 10), got [3, 10]"),
            ("noise-recovery", {"noise": {"topology": "asymmetric_pairs", "pairs": [[0, 12]]}}, "noise.pairs"),
            ("noise-recovery", {"noise": {"topology": "cyclic_superclass"}}, "noise.group_size"),
            (
                "noise-recovery",
                {"noise": {"topology": "cyclic_superclass", "group_size": 2, "pairs": [[0, 1]]}},
                "noise.pairs does not apply to topology 'cyclic_superclass'",
            ),
        ],
    )
    def test_bad_seed_or_non_finite_value_exits_2(self, tmp_path, capsys, command, doc, key):
        cfg = write_config(tmp_path, doc)  # json.dumps spells NaN and Infinity
        code, _, err = run_cli([command, "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("toy2d", {"dataset": {"class_count": 4}, "window": 3}),
            ("toy2d", {"dataset": {"class_count": 3}, "window": 0}),
            ("noise-recovery", {"noise": {"eta": 1.0}}),
            # class indices may be 0
            ("noise-recovery", {"noise": {"sinks": [0, 1]}}),
            ("noise-recovery", {"noise": {"topology": "asymmetric_pairs", "pairs": [[0, 1]]}}),
            ("noise-recovery", {"noise": {"topology": "block_superclass", "group_size": 10}}),
            ("noise-recovery", {"train": {"momentum": 0.0, "architecture": "mlp1", "hidden_units": 1}}),
            ("mil-toy", {"dataset": {"positive_instance_rate": 1.0, "n_bags": 2, "bag_size": 10}}),
        ],
    )
    def test_values_at_an_inclusive_bound_run(self, tmp_path, capsys, command, doc):
        tiny = {"seeds": [0], "dataset": {"n_per_class": 10, "n_test_per_class": 10}, "train": {"epochs": 1}}
        if command == "mil-toy":
            tiny["dataset"] = {}
        cfg = write_config(tmp_path, experiments.merge_config(tiny, doc))
        code, _, err = run_cli([command, "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 0, err
        assert (tmp_path / "o" / "report.json").exists()

    @staticmethod
    def strict_json(path):
        """``path`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

        def refuse(name):
            raise ValueError(f"{path.name} holds {name}")

        return json.loads(path.read_text(), parse_constant=refuse)

    @pytest.mark.parametrize("command", list(TINY_TWO_SEEDS))
    def test_every_json_artifact_is_strict_json(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, TINY_TWO_SEEDS[command])
        code, _, err = run_cli([command, "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 0, err
        for name in ("report.json", "manifest.json"):
            self.strict_json(tmp_path / "o" / name)

    def test_an_undefined_recall_is_null_and_an_empty_cell(self, tmp_path, capsys):
        # at rate 1.0 a positive bag holds no negative instance
        doc = {"seeds": [0], "dataset": {"n_bags": 8, "bag_size": 10, "positive_instance_rate": 1.0}, "train": {"epochs": 3}}
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["mil-toy", "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 0, err
        report = self.strict_json(tmp_path / "o" / "report.json")
        with open(tmp_path / "o" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["ce", "dual_margin"]
        for row in rows:
            method, extras = row["method"], report["runs"][row["method"]]["0"]["extras"]
            assert extras["recall_negative_in_positive_bags"] is None
            assert 0.0 <= extras["recall_positive"] <= 1.0
            assert report["summary"][method]["recall_negative_in_positive_bags"] is None
            assert report["summary"][method]["accuracy"]["std"] == 0.0
            assert row["recall_negative_in_positive_bags"] == ""

    @pytest.mark.parametrize(
        "experiment,digest",
        [
            ("toy2d", "2a6777317c87be2e49ffae91a149db2569401d3b25f1bf381d8c212afcfb262a"),
            ("noise_recovery", "b23af27091299228a73da9d7a32f818da0377a69d30bab5ce9b55f9d2c5f6841"),
            ("mil_toy", "45799de855c2714562bed5f07571407b4e12d526252ceb222d486ebd0bd35cdb"),
            ("sweep", "1505fd0186098e7c1707e60611fc54f7511d9773e2818e2ef680aaf36acee3a6"),
        ],
    )
    def test_default_config_is_pinned(self, experiment, digest):
        # the hash is sha256 of sorted-key JSON, so it holds on every platform
        assert experiments.config_hash(experiments.default_config(experiment)) == digest

    def test_largest_int64_size_passes_validation(self):
        cfg = experiments.default_config("noise_recovery")
        cfg["dataset"]["class_count"] = 2**63 - 1
        experiments.validate_config(cfg)

    @pytest.mark.parametrize("command", ["noise-recovery", "sweep"])
    def test_class_count_too_large_for_numpy_names_its_key(self, tmp_path, capsys, command):
        # above 3037000499 classes numpy refuses the shape of Q's (C, C) array before allocating
        cfg = write_config(tmp_path, {"dataset": {"class_count": 10**12}})
        tracemalloc.start()
        try:
            code, out, err = run_cli([command, "--config", cfg, "--out", tmp_path / "o"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == "" and err == "error: dataset.class_count is too large for a (C, C) array, got 1000000000000\n"
        assert not (tmp_path / "o").exists()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "doc,line",
        [
            ({"train": {"learning_rate": 0}}, "train.learning_rate must be in (0, inf), got 0"),
            ({"train": {"momentum": 1.0}}, "train.momentum must be in [0, 1), got 1.0"),
            ({"train": {"lr_schedule": "step"}}, "train.lr_schedule must be one of ('constant', 'cosine'), got 'step'"),
            ({"train": {"architecture": "cnn"}}, "train.architecture must be one of ('linear', 'mlp1'), got 'cnn'"),
            (
                {"noise": {"topology": "ring"}},
                "noise.topology must be one of ('column', 'asymmetric_pairs', 'cyclic_superclass', 'block_superclass'), got 'ring'",
            ),
            ({"noise": {"eta": 1.5}}, "noise.eta must be in [0, 1], got 1.5"),
            # a negative number fails the rule for floats before its owner's bound
            ({"train": {"learning_rate": -1}}, "train.learning_rate must be in [0, inf), got -1"),
            (
                {"noise": {"topology": "block_superclass", "group_size": 1}},
                "noise.group_size must be set, >= 2 and divide class_count 10, got 1",
            ),
        ],
    )
    def test_a_rule_owned_by_the_section_type_prints_its_line(self, tmp_path, capsys, doc, line):
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(["noise-recovery", "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert out == "" and err == f"error: {line}\n"
        assert not (tmp_path / "o").exists()

    def test_out_of_memory_exits_1_without_a_traceback(self, tmp_path, capsys):
        # numpy fails the room asked for Q's C x C array at once, before T is built
        cfg = write_config(tmp_path, {"dataset": {"class_count": 10**9}})
        code, _, err = run_cli(["noise-recovery", "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 1
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment,key",
        [
            ("toy2d", "loss.alpha"),
            ("toy2d", "window"),
            ("toy2d", "grid_resolution"),
            ("mil_toy", "dataset.dim"),
            ("mil_toy", "dataset.separation"),
            ("noise_recovery", "noise.eta"),
            ("sweep", "sweep.beta_values"),
            ("sweep", "train.momentum"),
        ],
    )
    def test_config_missing_a_key_is_rejected_naming_it(self, tmp_path, experiment, key):
        cfg = experiments.merge_config(experiments.default_config(experiment), {"output_dir": str(tmp_path / "o")})
        *sections, name = key.split(".")
        doc = cfg
        for section in sections:
            doc = doc[section]
        del doc[name]
        with pytest.raises(ValueError, match=f"missing config key '{key}'"):
            experiments.run_experiment(cfg)
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_records_a_diverged_ce_baseline(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0],
                "dataset": {"n_per_class": 20, "n_test_per_class": 20},
                "train": {"epochs": 2, "learning_rate": 1e308},
                "sweep": {"alpha_values": [0.1], "beta_values": [1.0]},
            },
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["sweep", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        assert (out_dir / "heatmap.txt").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["ce_baseline"] is None
        ce_failures = [f for f in report["failures"] if f.get("method") == "ce"]
        assert [set(f) for f in ce_failures] == [{"method", "seed", "error"}]
        with open(out_dir / "metrics.csv", newline="") as fh:
            assert all(row["method"] != "ce" for row in csv.DictReader(fh))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_failures_run_seed_by_seed_ce_then_cells_in_grid_order(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seeds": [0, 1],
                "dataset": {"n_per_class": 20, "n_test_per_class": 20},
                "train": {"epochs": 2, "learning_rate": 1e308},
                "sweep": {"alpha_values": [0.0, 0.1], "beta_values": [0.0, 1.0]},
            },
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["sweep", "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        failures = report["failures"]
        names = [f.get("method", (f.get("alpha"), f.get("beta"))) for f in failures]
        cells = [(a, b) for a in (0.0, 0.1) for b in (0.0, 1.0)]
        assert [f["seed"] for f in failures] == [0] * 5 + [1] * 5
        assert names == ["ce", *cells] * 2
        assert [set(f) for f in failures] == (
            [{"method", "seed", "error"}] + [{"alpha", "beta", "seed", "error"}] * 4
        ) * 2
        assert "both zero" in failures[1]["error"]
        # (0, 1) at seed 1 trains to finite weights whose test logits overflow
        assert failures[7]["error"].startswith("non-finite logits at evaluation")
        assert report["ce_baseline"] is None
        assert report["accuracy_grid"] == [[None, None], [None, None]]
        assert (out_dir / "metrics.csv").read_text().count("\n") == 1  # the header alone
        assert (out_dir / "heatmap.txt").read_text() == "nan nan\nnan nan\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command,doc,total",
        [
            # the (0, 0) cell fails at each seed, the other runs complete
            (
                "sweep",
                {"seeds": [0, 1], "dataset": {"n_per_class": 20, "n_test_per_class": 20}, "train": {"epochs": 1},
                 "sweep": {"alpha_values": [0.0, 1.0], "beta_values": [0.0]}},
                6,
            ),
            # every run diverges
            (
                "noise-recovery",
                {"seeds": [0], "dataset": {"n_per_class": 20, "n_test_per_class": 20},
                 "train": {"epochs": 2, "learning_rate": 1e308}},
                2,
            ),
        ],
    )
    def test_each_failed_run_prints_a_line_then_the_count(self, tmp_path, capsys, command, doc, total):
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        code, out, err = run_cli([command, "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        failures = json.loads((out_dir / "report.json").read_text())["failures"]
        assert failures
        family = command.replace("-", "_")
        assert err.splitlines() == [
            f"[{family}] seed={f['seed']} method={name} FAILED: {f['error']}"
            for f in failures
            for name in [f.get("method", (f.get("alpha"), f.get("beta")))]
        ] + [f"{len(failures)} of {total} runs failed"]
        assert len(out.splitlines()) == total - len(failures)  # one line per completed run

    def test_value_error_of_a_run_exits_2(self, tmp_path, capsys, monkeypatch):
        def failing_train(*args, **kwargs):
            raise ValueError("dataset is empty")

        monkeypatch.setattr(experiments, "train", failing_train)
        cfg = write_config(
            tmp_path,
            {"seeds": [0], "train": {"epochs": 1}, "sweep": {"alpha_values": [0.0], "beta_values": [0.0, 1.0]}},
        )
        code, _, err = run_cli(["sweep", "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert "dataset is empty" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,generator,key",
        [
            ("toy2d", "make_ring", "n_per_class"),
            ("noise-recovery", "make_gaussian_mixture", "n_per_class"),
            ("sweep", "make_gaussian_mixture", "n_per_class"),
            ("mil-toy", "make_mil_bags", "n_bags"),
        ],
    )
    def test_a_data_builder_error_names_its_dataset_key(self, tmp_path, capsys, monkeypatch, command, generator, key):
        real = getattr(experiments, generator)

        def failing_on_seed_1(*args, **kwargs):
            if kwargs["seed"] == 1:
                raise ValueError(f"{key} is bad")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, generator, failing_on_seed_1)
        cfg = write_config(tmp_path, TINY_TWO_SEEDS[command])
        code, out, err = run_cli([command, "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert err.splitlines()[-1] == f"error: dataset.{key} is bad"
        assert "seed=0 method=" in out and "seed=1" not in out  # the first seed's runs trained
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", list(TINY_TWO_SEEDS))
    def test_text_artifacts_hold_plain_python_numbers(self, tmp_path, capsys, command):
        # numpy 2 writes the repr of a numpy scalar as np.float64(...), numpy 1 as the bare number
        cfg = write_config(tmp_path, TINY_TWO_SEEDS[command])
        code, _, err = run_cli([command, "--config", cfg, "--out", tmp_path / "o"], capsys)
        assert code == 0, err
        for path in (tmp_path / "o").iterdir():
            assert "np." not in path.read_text(), path.name
        for path in (tmp_path / "o").glob("boundary_grid_*.txt"):
            for line in path.read_text().splitlines():
                x, y, pred = line.split()
                float(x), float(y), int(pred)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command,dataset,lr",
        [
            # at 1e300 both runs complete: their gradients stay finite
            ("noise-recovery", {"n_per_class": 20, "n_test_per_class": 20}, 1e308),
            # a saturated linear MIL model keeps its weights finite at 1e300
            ("mil-toy", {"n_bags": 8, "bag_size": 10}, 1e308),
        ],
    )
    def test_diverged_runs_are_recorded_and_the_rest_continue(self, tmp_path, capsys, command, dataset, lr):
        cfg = write_config(
            tmp_path,
            {"seeds": [0], "dataset": dataset, "train": {"epochs": 2, "learning_rate": lr}},
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli([command, "--config", cfg, "--out", out_dir], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(report["failures"]) >= 1
        assert len(rows) + len(report["failures"]) == 2  # one seed, two methods
        failed = {f["method"] for f in report["failures"]}
        assert failed.isdisjoint(report["summary"])


_JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16])
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | _JSON_FLOATS
    | _JSON_FLOATS.map(np.float64)  # a float subclass
    | st.text()  # non-ASCII and control characters included
    | st.lists(st.integers() | st.booleans())  # bools inside int lists
)
_JSON_KEYS = st.text(max_size=8)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(_JSON_KEYS, inner, max_size=5)
    ),
    max_leaves=20,
)


# confusion counts of 1 to 4 classes, empty rows and int64's largest count included
_COUNT_MATRICES = st.builds(
    lambda C, data: counts_from_dense(np.resize(np.asarray(data, dtype=np.int64), (C, C))),
    st.integers(1, 4),
    st.lists(st.integers(0, 2**63 - 1) | st.sampled_from([0, 0, 1, 2, 2**63 - 1]), min_size=1, max_size=16),
)


class TestReportWriter:
    @staticmethod
    def dumps(payload) -> bytes:
        # counts are written as their nonzero cells; a payload without them is unaffected
        def nonzero_cells(counts):
            dense = dense_counts(counts).ravel()
            cells = np.flatnonzero(dense)
            return {"class_count": counts.class_count, "cells": cells.tolist(), "counts": dense[cells].tolist()}

        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=nonzero_cells)
        return (text + "\n").encode("utf-8")

    def assert_writes_dumps(self, path, payload):
        """``_write_json`` writes the bytes of :meth:`dumps`, or raises its
        ValueError on a NaN or infinity and leaves ``path`` as it was."""
        before = path.read_bytes() if path.exists() else None
        try:
            want = self.dumps(payload)
        except ValueError:
            with pytest.raises(ValueError, match="not JSON compliant"):
                experiments._write_json(path, payload)
            assert (path.read_bytes() if path.exists() else None) == before
            return
        experiments._write_json(path, payload)
        assert path.read_bytes() == want

    @settings(max_examples=100, deadline=None)
    @given(payload=st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=5))
    def test_bytes_equal_json_dumps(self, tmp_path_factory, payload):
        self.assert_writes_dumps(tmp_path_factory.getbasetemp() / "writer.json", payload)

    @settings(max_examples=100, deadline=None)
    @given(
        payload=st.dictionaries(
            _JSON_KEYS,
            _COUNT_MATRICES
            | st.lists(_COUNT_MATRICES, max_size=3)
            | st.dictionaries(_JSON_KEYS, _COUNT_MATRICES | _JSON_VALUES, max_size=3),
            max_size=4,
        )
    )
    @example({"a": counts_from_dense(np.zeros((3, 3), dtype=int)), "b": counts_from_dense([[0]])})
    @example({"a": [counts_from_dense([[2**63 - 1]]), counts_from_dense([[0, 1], [7, 0]])]})
    def test_confusion_counts_are_written_as_their_nonzero_cells(self, tmp_path_factory, payload):
        self.assert_writes_dumps(tmp_path_factory.getbasetemp() / "arrays.json", payload)

    @pytest.mark.parametrize("payload", [{1: 2}, {"a": {None: 0}}])
    def test_non_str_keys_are_written_as_json_dumps_writes_them(self, tmp_path, payload):
        path = tmp_path / "x.json"
        experiments._write_json(path, payload)
        assert path.read_bytes() == self.dumps(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": object()}, [{"b": b"x"}],
            # no array is written, a dense count matrix included
            {"a": np.zeros(3, dtype=int)}, {"a": np.zeros((2, 2))}, {"a": np.zeros((1, 1, 1), dtype=int)},
            {"a": np.int64(1)},  # a numpy integer is no int
            {"a": np.eye(2, dtype=np.int32)},
        ],
    )
    def test_unsupported_payload_raises_type_error(self, tmp_path, payload):
        with pytest.raises(TypeError):
            experiments._write_json(tmp_path / "x.json", payload)

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        experiments._write_json(path, {"ok": 1})
        before = path.read_bytes()
        # json.dumps meets the bad value before any text reaches the temp file
        with pytest.raises(TypeError):
            experiments._write_json(path, {"a": list(range(100_000)), "b": object()})
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf)])
    def test_a_nan_or_infinity_raises_value_error_and_keeps_the_old_file(self, tmp_path, bad):
        path = tmp_path / "report.json"
        experiments._write_json(path, {"ok": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not JSON compliant"):
            experiments._write_json(path, {"a": list(range(100_000)), "b": {"c": [bad]}})
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        def interrupted(src, dst):
            raise KeyboardInterrupt

        # the whole text is in the temp file when the rename is interrupted
        monkeypatch.setattr(experiments.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            experiments.atomic_write_text(tmp_path / "x.txt", "partial")
        assert list(tmp_path.iterdir()) == []

    def test_real_reports_equal_json_dumps(self, tmp_path, capsys, monkeypatch):
        """Every family's report.json and manifest.json at its CI-tiny config
        is the json.dumps text, and each run's counts densify to those its
        evaluation returned."""
        written, evaluated = [], []
        real_write_json, real_evaluate = experiments._write_json, training.evaluate

        def recording_write_json(path, payload):
            real_write_json(path, payload)
            written.append((Path(path), payload))

        def recording_evaluate(*args, **kwargs):
            report = real_evaluate(*args, **kwargs)
            evaluated.append(report.confusion_matrix)
            return report

        monkeypatch.setattr(experiments, "_write_json", recording_write_json)
        monkeypatch.setattr(training, "evaluate", recording_evaluate)
        tiny = {
            "toy2d": {
                "seeds": [0],
                "dataset": {"n_per_class": 30, "n_test_per_class": 30},
                "train": {"epochs": 3},
                "grid_resolution": 7,
            },
            "noise-recovery": {
                "seeds": [0, 1],
                "dataset": {"class_count": 1000, "n_per_class": 2, "n_test_per_class": 2},
                "train": {"epochs": 1},
            },
            "mil-toy": {"seeds": [0], "dataset": {"n_bags": 8, "bag_size": 10}, "train": {"epochs": 3}},
            "sweep": {
                "seeds": [0, 1],
                "dataset": {"n_per_class": 20, "n_test_per_class": 20},
                "train": {"epochs": 1},
                "sweep": {"alpha_values": [0.0, 1.0], "beta_values": [0.0]},  # a null grid cell
            },
        }
        for command, doc in tiny.items():
            cfg = write_config(tmp_path, doc)
            code, _, _ = run_cli([command, "--config", cfg, "--out", tmp_path / command], capsys)
            assert code == 0
        assert len(written) == 2 * len(tiny)  # report.json and manifest.json per family
        runs = 0
        for path, payload in written:
            assert path.read_bytes() == self.dumps(payload), path
            if path.name != "report.json":
                continue
            report = json.loads(path.read_text())
            for method, by_seed in payload.get("runs", {}).items():
                for seed, run in by_seed.items():
                    counts = run["confusion_matrix"]
                    assert any(counts is returned for returned in evaluated)
                    cell_form = report["runs"][method][seed]["confusion_matrix"]
                    assert set(cell_form) == {"class_count", "cells", "counts"}
                    written_counts = training.ConfusionCounts(
                        cell_form["class_count"], np.array(cell_form["cells"]), np.array(cell_form["counts"])
                    )
                    np.testing.assert_array_equal(dense_counts(written_counts), dense_counts(counts))
                    runs += 1
        assert runs == 2 + 4 + 2  # toy2d, noise-recovery and mil-toy; the sweep keeps no run


def test_wide_noise_recovery_holds_no_c_by_c_object_graph(tmp_path, capsys):
    """At C = 1000 a run's one C x C array is Q (1 MB): the transition matrix
    holds each row's nonzeros, and the confusion matrix is kept and written
    as its nonzero cells, never as a list of Python ints."""
    cfg = experiments.merge_config(
        experiments.default_config("noise_recovery"),
        {
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
            "dataset": {"class_count": 1000, "n_per_class": 2, "n_test_per_class": 2},
            "train": {"epochs": 1},
        },
    )
    tracemalloc.start()
    try:
        experiments.run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    confusion = report["runs"]["dual_margin"]["0"]["confusion_matrix"]
    assert set(confusion) == {"class_count", "cells", "counts"}
    assert confusion["class_count"] == 1000
    # 2000 test samples fill at most 2000 of the 10**6 cells
    assert len(confusion["cells"]) == len(confusion["counts"]) <= 2000
    assert sum(confusion["counts"]) == 2000
    assert peak <= 20 << 20


def test_wide_noise_recovery_grows_at_most_1_mb_per_seed(tmp_path, capsys):
    """A seed adds no C x C array to a run at C = 1000: one transition matrix
    serves every seed, and a seed's two reports keep their sparse counts,
    where two dense int32 matrices would add 8 MB a seed."""
    peaks = []
    for seeds in ([0], [0, 1, 2]):
        cfg = experiments.merge_config(
            experiments.default_config("noise_recovery"),
            {
                "seeds": seeds,
                "output_dir": str(tmp_path / f"seeds-{len(seeds)}"),
                "dataset": {"class_count": 1000, "n_per_class": 2, "n_test_per_class": 2},
                "train": {"epochs": 1},
            },
        )
        tracemalloc.start()
        try:
            experiments.run_experiment(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert (peaks[1] - peaks[0]) / 2 <= 1 << 20


def test_wide_sweep_keeps_no_run_it_never_writes(tmp_path, capsys):
    """The sweep writes only mean accuracies, so it keeps no run's report
    or model: at C = 1000 each would hold its 128 KB of weights until the end."""
    cfg = experiments.merge_config(
        experiments.default_config("sweep"),
        {
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
            "dataset": {"class_count": 1000, "n_per_class": 2, "n_test_per_class": 2},
            "train": {"epochs": 1},
            "sweep": {"alpha_values": [0.1, 1.0, 10.0], "beta_values": [0.0, 1.0]},
        },
    )
    tracemalloc.start()
    try:
        result = experiments.run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert result["failures"] == []
    assert all(value is not None for row in result["accuracy_grid"] for value in row)
    assert peak <= 20 << 20


# run in a fresh interpreter: perfbench/child.py wraps module attributes
_HOOKS_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import child
import dualmargin.cli as cli

tracer = child.Tracer()
child.install(tracer, "trace")
for command, config in json.loads(sys.argv[3]):
    assert cli.main([command, "--config", config[0], "--out", config[1]]) == 0, command
print(json.dumps(sorted(tracer.stats)))
"""


def test_benchmark_hooks_see_every_layer(tmp_path):
    """The benchmark times the experiments through wrapped module attributes;
    a runner that binds one of them at import time hides it from the trace."""
    root = Path(__file__).resolve().parent.parent
    tiny = {
        "toy2d": dict(TINY_TOY2D, train={"epochs": 1}),
        "mil-toy": {"seeds": [0], "dataset": {"n_bags": 4, "bag_size": 5}, "train": {"epochs": 1}},
        "noise-recovery": {
            "seeds": [0],
            "dataset": {"n_per_class": 10, "n_test_per_class": 5},
            "train": {"epochs": 1},
        },
    }
    runs = []
    for command, doc in tiny.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(doc))
        runs.append([command, [str(config), str(tmp_path / command)]])
    done = subprocess.run(
        [sys.executable, "-c", _HOOKS_SCRIPT, str(root / "perfbench"), str(root / "src"), json.dumps(runs)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = set(json.loads(done.stdout.splitlines()[-1]))
    assert {"training.train", "training.train_mil_instances"} <= spans
    assert {
        "experiments.run",
        "experiments.write",
        "experiments.serialize",
        "datasets.make_ring",
        "datasets.make_mil_bags",
        "datasets.make_gaussian_mixture",
        "noise.build_transition",
        "noise.corrupt_labels",
        "plausibility.q_ordinal",
        "plausibility.q_mil",
        "plausibility.q_from_transition",
        "training.evaluate",
        "training.predict_logits",
        "loss.batch_loss_and_grad",
        "loss.ce_loss_and_grad",
    } <= spans


def test_benchmark_kernel_probe_runs(tmp_path):
    """The benchmark's traced runs start the kernel probe, which imports the
    library by name and checks dual-margin at (1, 0) against cross-entropy."""
    probe = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"
    record = tmp_path / "probe.json"
    done = subprocess.run(
        [sys.executable, str(probe), str(record), "0", "0.0001"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    shapes = ("128x10", "128x1000", "4096x100")
    kinds = ("loss.fwd_us", "loss.fwd_grad_us", "loss.dm_over_ce", "plausibility.sets_from_q_us")
    metrics = json.loads(record.read_text())
    assert set(metrics) == {f"{kind}.{shape}" for kind in kinds for shape in shapes} | {"noise.corrupt_us.1e5"}
    assert all(math.isfinite(value) and value > 0 for value in metrics.values())


def test_every_artifact_digest_config_is_valid(tmp_path, monkeypatch, capsys):
    """Each run of ``tools/artifact_digests.py`` gets through the CLI's
    config handling to ``validate_config``; nothing trains."""
    path = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    validated = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: validated.append(experiments.validate_config(cfg)))
    runs = tool.configs()
    assert len({name for name, *_ in runs}) == len(runs)
    for run in runs:
        code, _, err = run_cli(tool.cli_argv(tmp_path, *run), capsys)
        assert code == 0, (run[0], err)
    assert len(validated) == len(runs)


def test_every_reachability_bad_input_exits_2_naming_its_key(tmp_path, monkeypatch, capsys):
    """Each ``BAD_INPUTS`` row of ``tools/reachability.py`` exits 2 naming
    its key, and writes nothing."""
    tools = Path(__file__).resolve().parent.parent / "tools"
    monkeypatch.syspath_prepend(str(tools))
    spec = importlib.util.spec_from_file_location("reachability", tools / "reachability.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for i, (family, doc, key) in enumerate(tool.BAD_INPUTS):
        argv = tool.cli_argv(tmp_path, f"bad-{i}", family, doc, [])
        code, out, err = run_cli(argv, capsys)
        assert code == 2, (family, doc, err)
        assert out == "" and key in err, (family, doc, err)
        assert not (tmp_path / f"bad-{i}").exists()
