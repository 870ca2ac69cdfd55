"""CLI contract tests: exit codes, golden output, artifacts, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from dualmargin import LossParams, PlausibleSet, loss_from_logits, sets_from_q, training
from dualmargin.cli import main
from dualmargin.plausibility import q_ordinal, save_q_text


@pytest.fixture
def loss_eval_files(tmp_path):
    z_path = tmp_path / "z.txt"
    z_path.write_text("2.0 1.0 0.0 -1.0\n")
    q_path = tmp_path / "q.txt"
    save_q_text(q_ordinal(4, 1, "clamp"), q_path)
    return z_path, q_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
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
        mask = sets_from_q(q_ordinal(4, 1, "clamp"), np.array([0]))[0]
        expected = loss_from_logits(
            z, PlausibleSet(mask=mask, target=0), LossParams(0.1, 10.0, allow_degenerate=True)
        )
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
        for name in ("metrics.csv", "boundary_grid_ce.txt", "boundary_grid_dual_margin.txt"):
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

    def test_unparseable_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        code, _, err = run_cli(["toy2d", "--config", bad, "--out", tmp_path / "o"], capsys)
        assert code == 2
