"""Experiment families, config handling, and result persistence.

Every experiment is fully determined by its config dict plus seed list:
datasets, corruption, initialization, and shuffling all derive from the
seeds, so rerunning a command reproduces the metric files byte for byte.
Wall-clock timings are therefore reported on stdout only, never in the
artifacts.  All files are written atomically (temp file + rename): a
write that fails or is interrupted leaves no temp file and no partial
file.  A run's ``report.json`` entry is the ``vars`` of its
:class:`~dualmargin.training.ExperimentReport`, and each JSON file is
one ``json.dumps`` text: the confusion matrix is written as the nonzero
cells of its :class:`~dualmargin.training.ConfusionCounts`,
``{"class_count": C, "cells": [...], "counts": [...]}`` with ``cells``
the flat indices ``true * C + pred`` in increasing order, so no dense
(C, C) matrix or its text is ever built.  A value the writer cannot
write raises before any byte is written.

Per output directory the runners emit:

* ``metrics.csv``   -- one flat row per (seed, method) or sweep cell
* ``report.json``   -- structured per-run metrics plus aggregates
* ``manifest.json`` -- config hash, seed list, library version
* experiment-specific plot data (boundary grids, heatmap matrix)

All four families train through one driver, :func:`_run_methods`: each
method per seed, a diverged run recorded in ``failures`` while the others
go on.  The ``report.json`` of every family but ``sweep`` holds ``runs``
(``{method: {seed: report}}``), ``failures`` and ``summary`` (``{method:
{column: {mean, std}}}`` over the accuracy and the metrics.csv columns the
family names, leaving out a method with no completed run).  The config
hash leaves out ``output_dir``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import make_gaussian_mixture, make_mil_bags, make_ring
from .loss import LossParams
from .noise import TOPOLOGIES, NoiseSpec, build_transition, check_layout, corrupt_labels
from .plausibility import q_from_transition, q_mil, q_ordinal
from .training import (
    ARCHITECTURES,
    SCHEDULES,
    ConfusionCounts,
    TrainConfig,
    TrainingDivergedError,
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

# the noisy Gaussian mixture of noise_recovery and sweep
_MIXTURE = {
    "dataset": {"class_count": 10, "dim": 16, "n_per_class": 500, "n_test_per_class": 200, "class_separation": 4.0},
    "noise": {"topology": "column", "eta": 0.6},
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
        **_MIXTURE,
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
        **_MIXTURE,
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
    """Check a config against its family's defaults before any computation starts.

    One walk holds each value against its default, and the noise layout
    keys against ``_NOISE_LAYOUT``: an object has its default's keys; a
    list is nonempty, repeats no item, and holds items of the kind of its
    default's first (a tuple default also fixes the length); a str is set;
    a number is finite and of its default's type (an int is also a float,
    a bool is no number).  Each value lies in its ``_BOUNDS`` row, an
    interval or a str's choices; a number with no row follows the rule: an
    int is in [1, 2**63), a float at least 0.  The rules that tie keys
    together follow the walk; the noise layout's are
    :func:`~dualmargin.noise.check_layout`'s.  Each error names its key.
    """
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    _check("", cfg, _DEFAULTS[experiment])
    C, noise = cfg["dataset"].get("class_count"), cfg.get("noise")
    if experiment == "toy2d" and C < 3:
        raise ValueError(f"dataset.class_count must be >= 3 for the ring, got {C}")
    if experiment == "toy2d" and cfg["window"] >= C:
        raise ValueError(f"window must be smaller than dataset.class_count {C}, got {cfg['window']}")
    if "loss" in cfg and cfg["loss"]["alpha"] == cfg["loss"]["beta"] == 0:
        raise ValueError("loss.alpha and loss.beta must not both be 0")
    if noise is None:
        return cfg
    if noise["topology"] == "column" and C < 2:
        raise ValueError(f"dataset.class_count must be >= 2 for column noise, got {C}")
    try:
        check_layout(NoiseSpec(**noise), C)
    except ValueError as exc:
        raise ValueError(f"noise.{exc}") from None
    return cfg


# where a value's bounds differ from the rule (an int is in [1, 2**63), a
# float in [0, inf)): an interval, or the choices of a str.  2**63, the first
# int an int64 cannot hold, is a float that compares exactly with any int
_BOUNDS = {
    "seeds": "[0, inf)",
    "window": "[0, inf)",
    "dataset.n_bags": "[2, 9223372036854775808)",
    "dataset.positive_instance_rate": "(0, 1]",
    "noise.topology": TOPOLOGIES,
    "noise.eta": "[0, 1]",
    "noise.sinks": "[0, inf)",
    "noise.pairs": "[0, inf)",
    "noise.group_size": "[2, inf)",
    "train.learning_rate": "(0, inf)",
    "train.momentum": "[0, 1)",
    "train.lr_schedule": SCHEDULES,
    "train.architecture": ARCHITECTURES,
}

# the noise section's optional layout keys, each with a value of its kind
_NOISE_LAYOUT = {"sinks": (0, 1), "pairs": [(0, 1)], "group_size": 2}


def _check(where: str, value, default) -> None:
    """``value`` is of ``default``'s kind and in bounds, as :func:`validate_config` says."""
    kind = list if type(default) is tuple else type(default)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{where} must be of type {kind.__name__}, got {value!r}")
    if isinstance(value, dict):
        known = {**default, **_NOISE_LAYOUT} if where == "noise" else default
        prefix = f"{where}." if where else ""
        for key in value:
            if key not in known:
                raise ValueError(f"unknown config key '{prefix}{key}'; known keys are {sorted(known)}")
        for key in default:
            if key not in value:
                raise ValueError(f"missing config key '{prefix}{key}'")
        for key, item in value.items():
            _check(f"{prefix}{key}", item, known[key])
        return
    if isinstance(value, list):
        if isinstance(default, tuple) and len(value) != len(default):
            raise ValueError(f"{where} must hold {len(default)} items, got {value!r}")
        if not value:
            raise ValueError(f"{where} must be a nonempty list")
        for i, item in enumerate(value):
            _check(f"{where}[{i}]", item, default[0])
            if item in value[:i]:
                raise ValueError(f"{where} must not repeat a value, got {value!r}")
        return
    bound = _BOUNDS.get(where.partition("[")[0])
    if isinstance(value, str):
        if bound is not None and value not in bound:
            raise ValueError(f"{where} must be one of {bound}, got {value!r}")
        if not value:
            raise ValueError(f"{where} must be set")
        return
    # a float key's value, an int too, converts to a finite float
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where} must be finite, got {value!r}")
    bound = bound or ("[1, 9223372036854775808)" if kind is int else "[0, inf)")
    low, high = (float(end) for end in bound[1:-1].split(","))
    above = low < value if bound[0] == "(" else low <= value
    below = value < high if bound[-1] == ")" else value <= high
    if not (above and below):
        raise ValueError(f"{where} must be in {bound}, got {value!r}")


def config_hash(cfg: dict) -> str:
    """Hash of the experiment a config describes; where it is written is not part of it."""
    experiment = {key: value for key, value in cfg.items() if key != "output_dir"}
    canonical = json.dumps(experiment, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename.

    On any exception the temp file is removed and the error re-raised:
    ``path`` keeps what it held before and interrupted runs leave no
    partial file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def _counts_as_cells(value) -> dict:
    """``json.dumps``'s ``default``: a ConfusionCounts as its class count and nonzero cells."""
    if isinstance(value, ConfusionCounts):
        return {"class_count": value.class_count, "cells": value.cells.tolist(), "counts": value.counts.tolist()}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path, payload) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.

    A payload may also hold :class:`~dualmargin.training.ConfusionCounts`:
    each is written as ``{"class_count": C, "cells": [...], "counts":
    [...]}``, its nonzero cells and their counts.  Any other value json
    cannot write raises TypeError before a byte is written: ``path`` then
    keeps what it held before.
    """
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_counts_as_cells) + "\n")


def _mean_std(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    }


# ---------------------------------------------------------------------------
# experiment families
# ---------------------------------------------------------------------------


def _run_methods(cfg: dict, methods: dict, data_for_seed, fit, columns):
    """Train each method per seed; ``methods`` maps a name to ``(weights, q)``.

    ``weights`` is the dual-margin ``(alpha, beta)``, or None for CE: a
    run's ``TrainConfig`` is the ``train`` section with the seed and
    ``LossParams(*weights)`` or None.  A name is a string, or a sweep
    cell's ``(alpha, beta)``, whose failures hold ``alpha`` and ``beta``
    instead.  Weights LossParams rejects (alpha = beta = 0) and diverged
    runs are failures; each prints one ``FAILED`` line to stderr, and a
    count of the failed runs follows the last.  ``fit(data, q, tc)``
    returns ``(model, report)``.
    ``columns`` names the metrics.csv columns a row fills past the accuracy,
    read from the report's ``diagonal_mass``, ``mean_mass`` and ``extras``;
    the summary is taken over the accuracy and these.  Returns the rows, the
    report (runs, summary, failures) and the first seed's model per
    completed method.  ``columns=None`` (the sweep) keeps no run's report
    and no model: its rows hold only the accuracy.
    """
    experiment = cfg["experiment"]
    rows: list[dict] = []
    runs: dict = {method: {} for method in methods}
    failures: list[dict] = []
    first_models: dict = {}

    for seed in cfg["seeds"]:
        data = data_for_seed(seed)
        for method, (weights, q) in methods.items():
            name = {"method": method} if isinstance(method, str) else dict(zip(("alpha", "beta"), method))
            try:
                loss_params = None if weights is None else LossParams(*weights)
            except ValueError as exc:
                failures.append({**name, "seed": seed, "error": str(exc)})
                print(f"[{experiment}] seed={seed} method={method} FAILED: {exc}", file=sys.stderr)
                continue
            start = time.perf_counter()
            try:
                model, report = fit(data, q, TrainConfig(seed=seed, loss_params=loss_params, **cfg["train"]))
            except TrainingDivergedError as exc:
                failures.append({**name, "seed": seed, "error": str(exc)})
                print(f"[{experiment}] seed={seed} method={method} FAILED: {exc}", file=sys.stderr)
                continue
            print(
                f"[{experiment}] seed={seed} method={method} "
                f"acc={report.clean_test_accuracy:.4f} wall={time.perf_counter() - start:.2f}s"
            )
            alpha, beta = weights or (1.0, 0.0)
            row = {"experiment": experiment, "seed": seed, "method": method, "alpha": alpha, "beta": beta}
            row["accuracy"] = report.clean_test_accuracy
            rows.append(row)
            if columns is None:
                continue
            scores = {"diagonal_mass": report.diagonal_mass, **(report.mean_mass or {}), **report.extras}
            row.update((col, scores[col]) for col in columns)
            runs[method][str(seed)] = vars(report)
            if seed == cfg["seeds"][0]:
                first_models[method] = model

    if failures:
        print(f"{len(failures)} of {len(cfg['seeds']) * len(methods)} runs failed", file=sys.stderr)
    summary = {}
    for method in methods:
        done = [row for row in rows if row["method"] == method]
        if done:
            summary[method] = {col: _mean_std([row[col] for row in done]) for col in ("accuracy", *(columns or ()))}
    result = {"experiment": experiment, "runs": runs, "summary": summary, "failures": failures}
    return rows, result, first_models


def _ce_and_dm(cfg: dict, q, ce_q=None) -> dict:
    """``methods`` for cross-entropy (with ``ce_q``) against dual-margin (with ``q``) at the config's weights."""
    weights = (cfg["loss"]["alpha"], cfg["loss"]["beta"])
    return {"ce": (None, ce_q), "dual_margin": (weights, q)}


def _fit_train(split, q, tc: TrainConfig):
    """``fit`` for a (train, test) split; ``train`` is looked up per call."""
    train_ds, test_ds = split
    return train(train_ds, q, tc, test_data=test_ds)


def _transition(cfg: dict):
    """The noise spec's transition matrix, built once per run: Q is its
    support, and every seed's split corrupts its labels with it.

    Q is the run's one dense (C, C) array, so room for it is asked first:
    a class count too large for memory fails here at once, before T's
    O(C) arrays are written.
    """
    C = cfg["dataset"]["class_count"]
    np.empty((C, C), dtype=bool)
    return build_transition(NoiseSpec(**cfg["noise"]), C)


def _noisy_mixture_split(cfg: dict, transition, seed: int):
    """A (noisy train, clean test) split of one fixed mixture per seed, its labels corrupted by ``transition``."""
    ds = cfg["dataset"]
    # the test split shares the class means
    train_ds = make_gaussian_mixture(
        ds["class_count"], ds["dim"], ds["n_per_class"], ds["class_separation"],
        seed=seed, means_seed=seed,
    )
    test_ds = make_gaussian_mixture(
        ds["class_count"], ds["dim"], ds["n_test_per_class"], ds["class_separation"],
        seed=seed + _TEST_SEED_OFFSET, means_seed=seed,
    )
    noisy = corrupt_labels(train_ds.clean_labels, transition, seed)
    return replace(train_ds, noisy_labels=noisy), test_ds


def run_toy2d(cfg: dict) -> dict:
    """Ring classification, cross-entropy vs dual-margin with a cyclic window."""
    ds = cfg["dataset"]
    C = ds["class_count"]

    def ring_split(seed):
        return (
            make_ring(C, ds["n_per_class"], ds["angular_noise_std"], seed=seed),
            make_ring(C, ds["n_test_per_class"], ds["angular_noise_std"], seed=seed + _TEST_SEED_OFFSET),
        )

    q = q_ordinal(C, cfg["window"], boundary="wrap")
    rows, result, first_models = _run_methods(cfg, _ce_and_dm(cfg, q), ring_split, _fit_train, ("diagonal_mass",))
    out_dir = Path(cfg["output_dir"])
    resolution = cfg["grid_resolution"]
    for method, model in first_models.items():
        atomic_write_text(out_dir / f"boundary_grid_{method}.txt", _boundary_grid_text(model, resolution))
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


def run_noise_recovery(cfg: dict) -> dict:
    """Corrupt a mixture per the noise spec, then compare CE vs dual-margin."""
    transition = _transition(cfg)
    q = q_from_transition(transition)
    rows, result, _ = _run_methods(
        cfg, _ce_and_dm(cfg, q, ce_q=q), lambda seed: _noisy_mixture_split(cfg, transition, seed), _fit_train,
        ("diagonal_mass", "p_target", "p_plausible", "p_implausible"),
    )
    result["noise"] = cfg["noise"]
    _persist(Path(cfg["output_dir"]), cfg, rows, result)
    return result


def run_sweep(cfg: dict) -> dict:
    """A CE baseline and one dual-margin method per (alpha, beta) cell, through :func:`_run_methods`.

    metrics.csv, the heatmap and the report hold each cell's and the
    baseline's accuracy averaged over the seeds that completed; one with
    none gets no row, ``nan`` in the heatmap and ``null`` in the report.
    """
    transition = _transition(cfg)
    q = q_from_transition(transition)
    alphas = [float(a) for a in cfg["sweep"]["alpha_values"]]
    betas = [float(b) for b in cfg["sweep"]["beta_values"]]
    methods = {"ce": (None, None)}
    methods.update({(a, b): ((a, b), q) for a in alphas for b in betas})
    _, report, _ = _run_methods(
        cfg, methods, lambda seed: _noisy_mixture_split(cfg, transition, seed), _fit_train, None
    )
    mean = {method: scores["accuracy"]["mean"] for method, scores in report["summary"].items()}
    grid = [[mean.get((a, b)) for b in betas] for a in alphas]
    common = {"experiment": "sweep", "seed": cfg["seeds"][0] if len(cfg["seeds"]) == 1 else -1}
    rows = [
        {**common, "method": "dual_margin", "alpha": a, "beta": b, "accuracy": mean[a, b]}
        for a in alphas for b in betas if (a, b) in mean
    ]
    if "ce" in mean:
        rows.append({**common, "method": "ce", "alpha": 1.0, "beta": 0.0, "accuracy": mean["ce"]})

    out_dir = Path(cfg["output_dir"])
    heat_lines = [" ".join(repr(math.nan if v is None else v) for v in row) for row in grid]
    atomic_write_text(out_dir / "heatmap.txt", "\n".join(heat_lines) + "\n")

    result = {
        "experiment": "sweep",
        "alpha_values": alphas,
        "beta_values": betas,
        "accuracy_grid": grid,
        "ce_baseline": mean.get("ce"),
        "failures": report["failures"],
    }
    _persist(out_dir, cfg, rows, result)
    return result


def run_mil_toy(cfg: dict) -> dict:
    """Instance-level MIL: CE on inherited labels vs dual-margin with the MIL mask."""
    ds = cfg["dataset"]

    def bags_for_seed(seed):
        return make_mil_bags(
            ds["n_bags"], ds["bag_size"], ds["positive_instance_rate"],
            dim=ds["dim"], seed=seed, separation=ds["separation"],
        )

    rows, result, _ = _run_methods(
        cfg, _ce_and_dm(cfg, q_mil()), bags_for_seed, lambda bags, q, tc: (None, train_mil_instances(bags, tc, q=q)),
        ("recall_negative_in_positive_bags",),
    )
    _persist(Path(cfg["output_dir"]), cfg, rows, result)
    return result


def _persist(out_dir: Path, cfg: dict, rows: list[dict], result: dict) -> None:
    digest = config_hash(cfg)
    _write_metrics_csv(out_dir, rows)
    _write_json(out_dir / "report.json", {"config": cfg, "config_hash": digest, **result})
    _write_json(out_dir / "manifest.json", {"config_hash": digest, "seeds": cfg["seeds"], "version": __version__})


_RUNNERS = {
    "toy2d": run_toy2d,
    "noise_recovery": run_noise_recovery,
    "sweep": run_sweep,
    "mil_toy": run_mil_toy,
}


def run_experiment(cfg: dict) -> dict:
    cfg = validate_config(cfg)
    return _RUNNERS[cfg["experiment"]](cfg)
