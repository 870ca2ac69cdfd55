"""Experiment families, config handling, and result persistence.

Every experiment is fully determined by its config dict plus seed list:
datasets, corruption, initialization, and shuffling all derive from the
seeds, so rerunning a command reproduces the metric files byte for byte.
Wall-clock timings are therefore reported on stdout only, never in the
artifacts.  All files are written atomically (temp file + rename): a
write that fails or is interrupted leaves no temp file and no partial
file, and the JSON files are streamed to disk as they are serialised, so
the text of a C x C report is never held in memory.

Per output directory the runners emit:

* ``metrics.csv``   -- one flat row per (seed, method) or sweep cell
* ``report.json``   -- structured per-run metrics plus aggregates
* ``manifest.json`` -- config hash, seed list, library version
* experiment-specific plot data (boundary grids, heatmap matrix)

``toy2d``, ``noise_recovery`` and ``mil_toy`` run through one CE-vs-dual-
margin driver, :func:`_run_ce_vs_dm`.  Their ``report.json`` holds
``runs`` (``{method: {seed: metrics}}``), ``failures`` and ``summary``
(``{method: {column: {mean, std}}}`` over the metrics.csv score columns
the family fills, leaving out a method with no completed run).  A
diverged run is recorded in ``failures`` and the others go on.  The
config hash leaves out ``output_dir``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii
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
    if not isinstance(seeds, list) or not seeds or not all(type(s) is int and s >= 0 for s in seeds):
        raise ValueError(f"seeds must be a nonempty list of non-negative integers, got {seeds!r}")
    if not cfg.get("output_dir"):
        raise ValueError("output_dir must be set")
    # the sections a family reads are the objects in its defaults
    sections = [key for key, value in _DEFAULTS[experiment].items() if isinstance(value, dict)]
    for section in sections:
        if not isinstance(cfg.get(section), dict):
            raise ValueError(f"{section} must be an object, got {cfg.get(section)!r}")
    unknown = sorted(set(cfg["train"]) - set(_BASE_TRAIN))
    if unknown:
        raise ValueError(f"unknown train key {unknown[0]!r}; known keys are {sorted(_BASE_TRAIN)}")
    for section in sections:
        _check_finite(section, cfg[section])
        defaults = _DEFAULTS[experiment][section]
        for key, value in cfg[section].items():
            if key in defaults:
                _check_type(f"{section}.{key}", value, type(defaults[key]))
    # building these raises ValueError on bad values
    TrainConfig(seed=0, **cfg["train"])
    if "noise" in sections:
        _noise_spec(cfg["noise"])
    if "loss" in sections:
        loss = cfg["loss"]
        LossParams(alpha=loss.get("alpha", 1.0), beta=loss.get("beta", 0.0))
    if experiment == "sweep":
        grid = cfg["sweep"]
        alphas, betas = grid.get("alpha_values"), grid.get("beta_values")
        for name, values in (("alpha_values", alphas), ("beta_values", betas)):
            if not isinstance(values, list) or not values:
                raise ValueError(f"sweep.{name} must be a nonempty list")
            for value in values:
                _check_type(f"sweep.{name} element", value, float)
            if any(v < 0 for v in values):
                raise ValueError(f"sweep.{name} must be non-negative")
    return cfg


def _check_type(where: str, value, expected: type) -> None:
    """A config value has its default's type; an int is also a float, a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if expected is float else expected):
        raise ValueError(f"{where} must be of type {expected.__name__}, got {value!r}")


def _check_finite(where: str, value) -> None:
    """No float inside a config value is NaN or infinite (JSON configs may spell them)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(f"{where}.{key}", item)
    elif isinstance(value, list):
        for item in value:
            _check_finite(where, item)


def config_hash(cfg: dict) -> str:
    """Hash of the experiment a config describes; where it is written is not part of it."""
    experiment = {key: value for key, value in cfg.items() if key != "output_dir"}
    canonical = json.dumps(experiment, sort_keys=True, separators=(",", ":"))
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


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text`` to ``path`` via a temp file + rename.

    ``text`` is a str, or an iterable of str that is written piece by
    piece as it is produced.  On any exception, including one raised by
    ``text`` while it is consumed, the temp file is removed and the error
    re-raised: ``path`` keeps what it held before and interrupted runs
    leave no partial file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
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


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


def _json_chunks(value, pad: str):
    """Yield the JSON text of ``value`` piece by piece; ``pad`` is its line break and indent.

    Types are checked in the order of the stdlib encoder, so a bool is
    never written as an int and a float subclass is written as a float.
    """
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, float):
        yield _json_float(value)
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = pad + "  "
        if all(type(item) is int for item in value):  # confusion-matrix rows
            yield "[" + inner + ("," + inner).join(map(int.__repr__, value)) + pad + "]"
            return
        yield "[" + inner
        for i, item in enumerate(value):
            if i:
                yield "," + inner
            yield from _json_chunks(item, inner)
        yield pad + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = pad + "  "
        yield "{" + inner
        for i, (key, item) in enumerate(sorted(value.items())):
            if i:
                yield "," + inner
            yield encode_basestring_ascii(key) + ": "
            yield from _json_chunks(item, inner)
        yield pad + "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path, payload) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.

    The bytes are identical to that call's for any payload of str-keyed
    dicts, lists, tuples, str, int, float, bool and None (non-str keys
    raise TypeError); the stdlib encoder formats an indented dump in pure
    Python, one call per item, which is slow for C x C confusion matrices.
    The text is streamed to the file as it is produced, so no copy of the
    whole document is held in memory.  A value that cannot be written
    raises partway through; the temp file is then removed and ``path``
    keeps what it held before.
    """
    atomic_write_text(path, itertools.chain(_json_chunks(payload, "\n"), ("\n",)))


def _report_payload(report) -> dict:
    """JSON-ready view of a report; wall time stays out of the artifacts."""
    return {
        "train_curve": [float(v) for v in report.train_curve],
        "clean_test_accuracy": report.clean_test_accuracy,
        "confusion_matrix": report.confusion_matrix.tolist(),
        "diagonal_mass": diagonal_mass(report.confusion_matrix),
        "mean_mass": report.mean_mass,
        "extras": report.extras,
    }


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

# metrics.csv columns that hold per-run scores; the summary aggregates the
# ones a family fills
_SCORE_COLUMNS = METRIC_COLUMNS[METRIC_COLUMNS.index("accuracy"):]


def _run_ce_vs_dm(cfg: dict, q, data_for_seed, fit, row_metrics, ce_q=None):
    """Train cross-entropy (with ``ce_q``) and dual-margin (with ``q``) per seed.

    ``data_for_seed(seed)`` builds a seed's data, ``fit(data, q, tc)``
    returns ``(model, report)`` and ``row_metrics(report)`` the family's
    extra metrics.csv columns.  Returns the rows, the report (runs,
    summary, failures) and the first seed's model per completed method.
    """
    experiment = cfg["experiment"]
    alpha, beta = cfg["loss"]["alpha"], cfg["loss"]["beta"]
    # per method: loss, loss parameters, Q, and the alpha and beta of its rows
    methods = {
        "ce": ("cross_entropy", None, ce_q, 1.0, 0.0),
        "dual_margin": ("dual_margin", LossParams(alpha, beta), q, alpha, beta),
    }
    rows: list[dict] = []
    runs: dict[str, dict] = {method: {} for method in methods}
    failures: list[dict] = []
    first_models: dict[str, object] = {}

    for seed in cfg["seeds"]:
        data = data_for_seed(seed)
        for method, (loss, loss_params, q_arg, row_alpha, row_beta) in methods.items():
            try:
                model, report = fit(data, q_arg, _train_config(cfg, seed, loss, loss_params))
            except TrainingDivergedError as exc:
                failures.append({"seed": seed, "method": method, "error": str(exc)})
                continue
            print(
                f"[{experiment}] seed={seed} method={method} "
                f"acc={report.clean_test_accuracy:.4f} wall={report.wall_time:.2f}s"
            )
            runs[method][str(seed)] = _report_payload(report)
            rows.append(
                {
                    "experiment": experiment,
                    "seed": seed,
                    "method": method,
                    "alpha": row_alpha,
                    "beta": row_beta,
                    "accuracy": report.clean_test_accuracy,
                    **row_metrics(report),
                }
            )
            if seed == cfg["seeds"][0]:
                first_models[method] = model

    summary = {}
    for method in methods:
        done = [row for row in rows if row["method"] == method]
        if done:
            summary[method] = {col: _mean_std([row[col] for row in done]) for col in _SCORE_COLUMNS if col in done[0]}
    result = {"experiment": experiment, "runs": runs, "summary": summary, "failures": failures}
    return rows, result, first_models


def _fit_train(split, q, tc: TrainConfig):
    """``fit`` for a (train, test) split; ``train`` is looked up per call."""
    train_ds, test_ds = split
    return train(train_ds, q, tc, test_data=test_ds)


def _transition_and_q(cfg: dict):
    """The noise spec's transition matrix and its support as Q."""
    transition = build_transition(_noise_spec(cfg["noise"]), cfg["dataset"]["class_count"])
    return transition, q_from_transition(transition)


def _noisy_mixture_split(cfg: dict, seed: int, transition):
    """A (noisy train, clean test) split of one fixed mixture per seed."""
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
    return train_ds.with_noisy_labels(noisy), test_ds


def run_toy2d(cfg: dict) -> dict:
    """Ring classification, cross-entropy vs dual-margin with a cyclic window."""
    ds = cfg["dataset"]
    C = ds["class_count"]

    def ring_split(seed):
        return (
            make_ring(C, ds["n_per_class"], ds["angular_noise_std"], seed=seed),
            make_ring(C, ds["n_test_per_class"], ds["angular_noise_std"], seed=seed + _TEST_SEED_OFFSET),
        )

    q = q_ordinal(C, int(cfg.get("window", 1)), boundary="wrap")
    rows, result, first_models = _run_ce_vs_dm(
        cfg, q, ring_split, _fit_train,
        lambda report: {"diagonal_mass": diagonal_mass(report.confusion_matrix)},
    )
    out_dir = Path(cfg["output_dir"])
    resolution = int(cfg.get("grid_resolution", 60))
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
    transition, q = _transition_and_q(cfg)
    rows, result, _ = _run_ce_vs_dm(
        cfg, q, lambda seed: _noisy_mixture_split(cfg, seed, transition), _fit_train,
        lambda report: {"diagonal_mass": diagonal_mass(report.confusion_matrix), **report.mean_mass},
        ce_q=q,
    )
    result["noise"] = cfg["noise"]
    _persist(Path(cfg["output_dir"]), cfg, rows, result)
    return result


def run_sweep(cfg: dict) -> dict:
    """One dual-margin run per (alpha, beta) cell plus a CE baseline."""
    transition, q = _transition_and_q(cfg)
    alphas = [float(a) for a in cfg["sweep"]["alpha_values"]]
    betas = [float(b) for b in cfg["sweep"]["beta_values"]]
    seeds = cfg["seeds"]
    splits = {seed: _noisy_mixture_split(cfg, seed, transition) for seed in seeds}

    failures: list[dict] = []
    ce_accs = []
    for seed in seeds:
        noisy_ds, test_ds = splits[seed]
        try:
            _, report = train(noisy_ds, None, _train_config(cfg, seed, "cross_entropy"), test_data=test_ds)
        except TrainingDivergedError as exc:
            failures.append({"method": "ce", "seed": seed, "error": str(exc)})
            continue
        ce_accs.append(report.clean_test_accuracy)
    ce_mean = float(np.mean(ce_accs)) if ce_accs else None
    print(f"[sweep] ce baseline acc={ce_mean:.4f}" if ce_accs else "[sweep] ce baseline failed on every seed")

    grid = np.full((len(alphas), len(betas)), np.nan)
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
    if ce_accs:
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

    def bags_for_seed(seed):
        return make_mil_bags(
            ds["n_bags"], ds["bag_size"], ds["positive_instance_rate"],
            dim=ds.get("dim", 2), seed=seed, separation=ds.get("separation", 3.0),
        )

    rows, result, _ = _run_ce_vs_dm(
        cfg, q_mil(), bags_for_seed, lambda bags, q, tc: (None, train_mil_instances(bags, tc, q=q)),
        lambda report: {"recall_negative_in_positive_bags": report.extras["recall_negative_in_positive_bags"]},
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
