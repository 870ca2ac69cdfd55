"""Experiment families, config handling, and result persistence.

Every experiment is fully determined by its config dict plus seed list:
datasets, corruption, initialization, and shuffling all derive from the
seeds, so rerunning a command reproduces the metric files byte for byte.
Wall-clock timings are therefore reported on stdout only, never in the
artifacts.  All files are written atomically (temp file + rename).

Per output directory the runners emit:

* ``metrics.csv``   -- one flat row per (seed, method) or sweep cell
* ``report.json``   -- structured per-run metrics plus aggregates
* ``manifest.json`` -- config hash, seed list, library version
* experiment-specific plot data (boundary grids, heatmap matrix)
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import make_gaussian_mixture, make_mil_bags, make_ring
from .loss import LossParams
from .noise import NoiseSpec, build_transition, corrupt_labels
from .plausibility import q_from_transition, q_mil, q_ordinal
from .training import (
    TrainConfig,
    TrainingDivergedError,
    diagonal_mass,
    evaluate,  # noqa: F401 -- perfbench/child.py traces experiments.evaluate
    predict_logits,
    train,
    train_mil_instances,
)

__all__ = [
    "EXPERIMENTS",
    "default_config",
    "load_config",
    "merge_config",
    "validate_config",
    "config_hash",
    "atomic_write_text",
    "run_experiment",
]

EXPERIMENTS = ("toy2d", "noise_recovery", "mil_toy", "sweep")

METRIC_COLUMNS = [
    "experiment",
    "seed",
    "method",
    "alpha",
    "beta",
    "accuracy",
    "diagonal_mass",
    "p_target",
    "p_plausible",
    "p_implausible",
    "recall_negative_in_positive_bags",
]

# offset separating dataset-generation streams for train and test splits
_TEST_SEED_OFFSET = 1_000_003

_BASE_TRAIN = {
    "learning_rate": 0.05,
    "epochs": 100,
    "batch_size": 128,
    "momentum": 0.9,
    "lr_schedule": "cosine",
    "architecture": "linear",
    "hidden_units": 64,
}

_DEFAULTS: dict[str, dict] = {
    "toy2d": {
        "experiment": "toy2d",
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": "out_toy2d",
        "dataset": {
            "class_count": 8,
            "n_per_class": 200,
            "n_test_per_class": 500,
            "angular_noise_std": 0.15,
        },
        "window": 1,
        "grid_resolution": 60,
        "loss": {"alpha": 0.1, "beta": 10.0},
        "train": dict(_BASE_TRAIN, epochs=200, learning_rate=0.5),
    },
    "noise_recovery": {
        "experiment": "noise_recovery",
        "seeds": [0, 1, 2],
        "output_dir": "out_noise",
        "dataset": {
            "class_count": 10,
            "dim": 16,
            "n_per_class": 500,
            "n_test_per_class": 200,
            "class_separation": 4.0,
        },
        "noise": {"topology": "column", "eta": 0.6},
        "loss": {"alpha": 0.1, "beta": 10.0},
        "train": dict(_BASE_TRAIN),
    },
    "mil_toy": {
        "experiment": "mil_toy",
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": "out_mil",
        "dataset": {
            "n_bags": 60,
            "bag_size": 50,
            "positive_instance_rate": 0.2,
            "dim": 2,
            "separation": 3.0,
        },
        "loss": {"alpha": 1.0, "beta": 1.0},
        "train": dict(_BASE_TRAIN, epochs=80),
    },
    "sweep": {
        "experiment": "sweep",
        "seeds": [0],
        "output_dir": "out_sweep",
        "dataset": {
            "class_count": 10,
            "dim": 16,
            "n_per_class": 500,
            "n_test_per_class": 200,
            "class_separation": 4.0,
        },
        "noise": {"topology": "column", "eta": 0.6},
        "sweep": {
            "alpha_values": [0.01, 0.1, 1.0, 10.0, 100.0],
            "beta_values": [0.01, 0.1, 1.0, 10.0, 100.0],
        },
        "train": dict(_BASE_TRAIN),
    },
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def default_config(experiment: str) -> dict:
    if experiment not in _DEFAULTS:
        raise ValueError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    return json.loads(json.dumps(_DEFAULTS[experiment]))


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config root must be an object")
    return doc


def merge_config(base: dict, override: dict) -> dict:
    """Recursive merge; override values win, dicts merge key-wise."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = value
    return out


def validate_config(cfg: dict) -> dict:
    """Check experiment-level consistency before any computation starts."""
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    seeds = cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ValueError("seeds must be a nonempty list of integers")
    if not cfg.get("output_dir"):
        raise ValueError("output_dir must be set")
    # building these raises ValueError on bad values
    TrainConfig(seed=0, **cfg["train"])
    if experiment in ("noise_recovery", "sweep"):
        _noise_spec(cfg["noise"])
    if experiment in ("toy2d", "noise_recovery", "mil_toy"):
        loss = cfg.get("loss", {})
        LossParams(alpha=loss.get("alpha", 1.0), beta=loss.get("beta", 0.0))
    if experiment == "sweep":
        grid = cfg.get("sweep", {})
        alphas, betas = grid.get("alpha_values"), grid.get("beta_values")
        for name, values in (("alpha_values", alphas), ("beta_values", betas)):
            if not isinstance(values, list) or not values:
                raise ValueError(f"sweep.{name} must be a nonempty list")
            if any(v < 0 for v in values):
                raise ValueError(f"sweep.{name} must be non-negative")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _noise_spec(doc: dict) -> NoiseSpec:
    pairs = doc.get("pairs")
    if pairs is not None:
        pairs = [tuple(p) for p in pairs]
    sinks = doc.get("sinks")
    if sinks is not None:
        sinks = tuple(sinks)
    return NoiseSpec(
        topology=doc["topology"],
        eta=doc["eta"],
        sinks=sinks,
        pairs=pairs,
        group_size=doc.get("group_size"),
    )


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def atomic_write_text(path, text: str) -> None:
    """Write via temp file + rename so interrupted runs leave no partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # repr of np.float64 is "np.float64(...)" under numpy 2
    return str(value)


def _write_metrics_csv(out_dir: Path, rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=METRIC_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in METRIC_COLUMNS})
    atomic_write_text(out_dir / "metrics.csv", buf.getvalue())


def _write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, cfg: dict) -> None:
    _write_json(
        out_dir / "manifest.json",
        {"config_hash": config_hash(cfg), "seeds": cfg["seeds"], "version": __version__},
    )


def _report_payload(report) -> dict:
    """JSON-ready view of a report; wall time stays out of the artifacts."""
    payload = {
        "train_curve": [float(v) for v in report.train_curve],
        "clean_test_accuracy": report.clean_test_accuracy,
        "confusion_matrix": report.confusion_matrix.tolist(),
        "diagonal_mass": diagonal_mass(report.confusion_matrix),
        "mean_mass": report.mean_mass,
        "extras": report.extras,
    }
    return payload


def _mean_std(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    }


def _train_config(cfg: dict, seed: int, loss: str, loss_params: LossParams | None = None) -> TrainConfig:
    return TrainConfig(seed=seed, loss=loss, loss_params=loss_params, **cfg["train"])


# ---------------------------------------------------------------------------
# experiment families
# ---------------------------------------------------------------------------


def run_toy2d(cfg: dict) -> dict:
    """Ring classification, cross-entropy vs dual-margin with a cyclic window."""
    ds_cfg = cfg["dataset"]
    C = ds_cfg["class_count"]
    q = q_ordinal(C, int(cfg.get("window", 1)), boundary="wrap")
    alpha, beta = cfg["loss"]["alpha"], cfg["loss"]["beta"]
    rows: list[dict] = []
    runs: dict[str, dict] = {"ce": {}, "dual_margin": {}}
    failures: list[dict] = []
    grid_models: dict[str, object] = {}

    for seed in cfg["seeds"]:
        data = make_ring(C, ds_cfg["n_per_class"], ds_cfg["angular_noise_std"], seed=seed)
        test = make_ring(C, ds_cfg["n_test_per_class"], ds_cfg["angular_noise_std"], seed=seed + _TEST_SEED_OFFSET)
        for method in ("ce", "dual_margin"):
            if method == "ce":
                tc = _train_config(cfg, seed, "cross_entropy")
                q_arg = None
            else:
                tc = _train_config(cfg, seed, "dual_margin", LossParams(alpha, beta))
                q_arg = q
            try:
                model, report = train(data, q_arg, tc, test_data=test)
            except TrainingDivergedError as exc:
                failures.append({"seed": seed, "method": method, "error": str(exc)})
                continue
            print(f"[toy2d] seed={seed} method={method} acc={report.clean_test_accuracy:.4f} wall={report.wall_time:.2f}s")
            runs[method][str(seed)] = _report_payload(report)
            rows.append(
                {
                    "experiment": "toy2d",
                    "seed": seed,
                    "method": method,
                    "alpha": alpha if method == "dual_margin" else 1.0,
                    "beta": beta if method == "dual_margin" else 0.0,
                    "accuracy": report.clean_test_accuracy,
                    "diagonal_mass": diagonal_mass(report.confusion_matrix),
                }
            )
            if seed == cfg["seeds"][0]:
                grid_models[method] = model

    out_dir = Path(cfg["output_dir"])
    resolution = int(cfg.get("grid_resolution", 60))
    for method, model in grid_models.items():
        atomic_write_text(out_dir / f"boundary_grid_{method}.txt", _boundary_grid_text(model, resolution))

    summary = {
        method: _mean_std([r["clean_test_accuracy"] for r in per_seed.values()])
        for method, per_seed in runs.items()
        if per_seed
    }
    result = {"experiment": "toy2d", "runs": runs, "summary": summary, "failures": failures}
    _persist(out_dir, cfg, rows, result)
    return result


def _boundary_grid_text(model, resolution: int) -> str:
    """Predicted class over a dense [-1.5, 1.5]^2 grid; resolution^2 rows."""
    axis = np.linspace(-1.5, 1.5, resolution)
    xx, yy = np.meshgrid(axis, axis)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    preds = np.argmax(predict_logits(model, points), axis=1)
    lines = [f"{x!r} {y!r} {int(p)}" for (x, y), p in zip(points, preds)]
    return "\n".join(lines) + "\n"


def _mixture_split(cfg: dict, seed: int):
    ds = cfg["dataset"]
    # one fixed mixture per seed: the test split shares the class means
    train_ds = make_gaussian_mixture(
        ds["class_count"], ds["dim"], ds["n_per_class"], ds["class_separation"],
        seed=seed, means_seed=seed,
    )
    test_ds = make_gaussian_mixture(
        ds["class_count"], ds["dim"], ds["n_test_per_class"], ds["class_separation"],
        seed=seed + _TEST_SEED_OFFSET, means_seed=seed,
    )
    return train_ds, test_ds


def run_noise_recovery(cfg: dict) -> dict:
    """Corrupt a mixture per the noise spec, then compare CE vs dual-margin."""
    ds_cfg = cfg["dataset"]
    C = ds_cfg["class_count"]
    spec = _noise_spec(cfg["noise"])
    transition = build_transition(spec, C)
    q = q_from_transition(transition)
    alpha, beta = cfg["loss"]["alpha"], cfg["loss"]["beta"]

    rows: list[dict] = []
    runs: dict[str, dict] = {"ce": {}, "dual_margin": {}}
    for seed in cfg["seeds"]:
        train_ds, test_ds = _mixture_split(cfg, seed)
        noisy = corrupt_labels(train_ds.clean_labels, transition, seed)
        noisy_ds = train_ds.with_noisy_labels(noisy)
        for method in ("ce", "dual_margin"):
            if method == "ce":
                tc = _train_config(cfg, seed, "cross_entropy")
            else:
                tc = _train_config(cfg, seed, "dual_margin", LossParams(alpha, beta))
            _, scored = train(noisy_ds, q, tc, test_data=test_ds)
            print(
                f"[noise_recovery] seed={seed} method={method} "
                f"acc={scored.clean_test_accuracy:.4f} wall={scored.wall_time:.2f}s"
            )
            runs[method][str(seed)] = _report_payload(scored)
            rows.append(
                {
                    "experiment": "noise_recovery",
                    "seed": seed,
                    "method": method,
                    "alpha": alpha if method == "dual_margin" else 1.0,
                    "beta": beta if method == "dual_margin" else 0.0,
                    "accuracy": scored.clean_test_accuracy,
                    "diagonal_mass": diagonal_mass(scored.confusion_matrix),
                    "p_target": scored.mean_mass["p_target"],
                    "p_plausible": scored.mean_mass["p_plausible"],
                    "p_implausible": scored.mean_mass["p_implausible"],
                }
            )

    summary = {
        method: {
            "accuracy": _mean_std([r["clean_test_accuracy"] for r in per_seed.values()]),
            "diagonal_mass": _mean_std([r["diagonal_mass"] for r in per_seed.values()]),
        }
        for method, per_seed in runs.items()
    }
    result = {"experiment": "noise_recovery", "noise": cfg["noise"], "runs": runs, "summary": summary}
    _persist(Path(cfg["output_dir"]), cfg, rows, result)
    return result


def run_sweep(cfg: dict) -> dict:
    """One dual-margin run per (alpha, beta) cell plus a CE baseline."""
    ds_cfg = cfg["dataset"]
    C = ds_cfg["class_count"]
    spec = _noise_spec(cfg["noise"])
    transition = build_transition(spec, C)
    q = q_from_transition(transition)
    alphas = [float(a) for a in cfg["sweep"]["alpha_values"]]
    betas = [float(b) for b in cfg["sweep"]["beta_values"]]
    seeds = cfg["seeds"]

    splits = {}
    for seed in seeds:
        train_ds, test_ds = _mixture_split(cfg, seed)
        noisy = corrupt_labels(train_ds.clean_labels, transition, seed)
        splits[seed] = (train_ds.with_noisy_labels(noisy), test_ds)

    ce_accs = []
    for seed in seeds:
        noisy_ds, test_ds = splits[seed]
        _, report = train(noisy_ds, None, _train_config(cfg, seed, "cross_entropy"), test_data=test_ds)
        ce_accs.append(report.clean_test_accuracy)
    ce_mean = float(np.mean(ce_accs))
    print(f"[sweep] ce baseline acc={ce_mean:.4f}")

    grid = np.full((len(alphas), len(betas)), np.nan)
    failures: list[dict] = []
    rows: list[dict] = []
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            accs = []
            try:
                params = LossParams(alpha, beta)
            except ValueError as exc:  # the degenerate alpha = beta = 0 cell
                failures.extend({"alpha": alpha, "beta": beta, "seed": seed, "error": str(exc)} for seed in seeds)
                continue
            for seed in seeds:
                noisy_ds, test_ds = splits[seed]
                tc = _train_config(cfg, seed, "dual_margin", params)
                try:
                    _, report = train(noisy_ds, q, tc, test_data=test_ds)
                except TrainingDivergedError as exc:
                    failures.append({"alpha": alpha, "beta": beta, "seed": seed, "error": str(exc)})
                    continue
                accs.append(report.clean_test_accuracy)
            if accs:
                grid[i, j] = float(np.mean(accs))
                print(f"[sweep] alpha={alpha:g} beta={beta:g} acc={grid[i, j]:.4f}")
                rows.append(
                    {
                        "experiment": "sweep",
                        "seed": seeds[0] if len(seeds) == 1 else -1,
                        "method": "dual_margin",
                        "alpha": alpha,
                        "beta": beta,
                        "accuracy": grid[i, j],
                    }
                )
    rows.append(
        {
            "experiment": "sweep",
            "seed": seeds[0] if len(seeds) == 1 else -1,
            "method": "ce",
            "alpha": 1.0,
            "beta": 0.0,
            "accuracy": ce_mean,
        }
    )

    out_dir = Path(cfg["output_dir"])
    heat_lines = [" ".join(repr(float(v)) for v in row) for row in grid]
    atomic_write_text(out_dir / "heatmap.txt", "\n".join(heat_lines) + "\n")

    result = {
        "experiment": "sweep",
        "alpha_values": alphas,
        "beta_values": betas,
        "accuracy_grid": [[None if np.isnan(v) else float(v) for v in row] for row in grid],
        "ce_baseline": ce_mean,
        "failures": failures,
    }
    _persist(out_dir, cfg, rows, result)
    return result


def run_mil_toy(cfg: dict) -> dict:
    """Instance-level MIL: CE on inherited labels vs dual-margin with the MIL mask."""
    ds = cfg["dataset"]
    alpha, beta = cfg["loss"]["alpha"], cfg["loss"]["beta"]
    q = q_mil()
    rows: list[dict] = []
    runs: dict[str, dict] = {"ce": {}, "dual_margin": {}}
    for seed in cfg["seeds"]:
        bags = make_mil_bags(
            ds["n_bags"], ds["bag_size"], ds["positive_instance_rate"],
            dim=ds.get("dim", 2), seed=seed, separation=ds.get("separation", 3.0),
        )
        for method in ("ce", "dual_margin"):
            if method == "ce":
                tc = _train_config(cfg, seed, "cross_entropy")
                report = train_mil_instances(bags, tc)
            else:
                tc = _train_config(cfg, seed, "dual_margin", LossParams(alpha, beta))
                report = train_mil_instances(bags, tc, q=q)
            print(
                f"[mil_toy] seed={seed} method={method} acc={report.clean_test_accuracy:.4f} "
                f"neg-in-pos-recall={report.extras['recall_negative_in_positive_bags']:.4f}"
            )
            runs[method][str(seed)] = _report_payload(report)
            rows.append(
                {
                    "experiment": "mil_toy",
                    "seed": seed,
                    "method": method,
                    "alpha": alpha if method == "dual_margin" else 1.0,
                    "beta": beta if method == "dual_margin" else 0.0,
                    "accuracy": report.clean_test_accuracy,
                    "recall_negative_in_positive_bags": report.extras["recall_negative_in_positive_bags"],
                }
            )

    summary = {
        method: {
            "accuracy": _mean_std([r["clean_test_accuracy"] for r in per_seed.values()]),
            "recall_negative_in_positive_bags": _mean_std(
                [r["extras"]["recall_negative_in_positive_bags"] for r in per_seed.values()]
            ),
        }
        for method, per_seed in runs.items()
    }
    result = {"experiment": "mil_toy", "runs": runs, "summary": summary}
    _persist(Path(cfg["output_dir"]), cfg, rows, result)
    return result


def _persist(out_dir: Path, cfg: dict, rows: list[dict], result: dict) -> None:
    _write_metrics_csv(out_dir, rows)
    _write_json(out_dir / "report.json", {"config": cfg, "config_hash": config_hash(cfg), **result})
    _write_manifest(out_dir, cfg)


_RUNNERS = {
    "toy2d": run_toy2d,
    "noise_recovery": run_noise_recovery,
    "sweep": run_sweep,
    "mil_toy": run_mil_toy,
}


def run_experiment(cfg: dict) -> dict:
    cfg = validate_config(cfg)
    return _RUNNERS[cfg["experiment"]](cfg)
