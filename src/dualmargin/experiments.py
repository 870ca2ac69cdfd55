"""Experiment families, config handling, and result persistence.

Every experiment is fully determined by its config dict plus seed list:
datasets, corruption, initialization, and shuffling all derive from the
seeds, so rerunning a command reproduces the metric files byte for byte.
Wall-clock timings are therefore reported on stdout only, never in the
artifacts.  All files are written atomically (temp file + rename): a
write that fails or is interrupted leaves no temp file and no partial
file.  A report payload holds each run's confusion matrix as a 2-D
integer array, not as lists of Python ints.  The JSON writer takes the
text around those arrays from one ``json.dumps`` call and streams only
the arrays' text to disk, row by row, so the text of a C x C report is
never held in memory; a value it cannot write raises before any byte is
written.

Per output directory the runners emit:

* ``metrics.csv``   -- one flat row per (seed, method) or sweep cell
* ``report.json``   -- structured per-run metrics plus aggregates
* ``manifest.json`` -- config hash, seed list, library version
* experiment-specific plot data (boundary grids, heatmap matrix)

All four families train through one driver, :func:`_run_methods`: each
method per seed, a diverged run recorded in ``failures`` while the others
go on.  The ``report.json`` of every family but ``sweep`` holds ``runs``
(``{method: {seed: metrics}}``), ``failures`` and ``summary`` (``{method:
{column: {mean, std}}}`` over the metrics.csv score columns the family
fills, leaving out a method with no completed run).  The config hash
leaves out ``output_dir``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from collections.abc import Iterable
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
    """Check experiment-level consistency before any computation starts.

    A config holds the keys of its family's defaults, at the top level and
    in each section (the objects among them), each of its default's type.
    The noise section may also set ``sinks``, ``pairs`` and ``group_size``.
    """
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    defaults = _DEFAULTS[experiment]
    _check_keys("", cfg, defaults)
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(type(s) is int and s >= 0 for s in seeds):
        raise ValueError(f"seeds must be a nonempty list of non-negative integers, got {seeds!r}")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must not repeat a seed, got {seeds!r}")
    if not cfg["output_dir"]:
        raise ValueError("output_dir must be set")
    sections = [key for key, value in defaults.items() if isinstance(value, dict)]
    for section in sections:
        if not isinstance(cfg[section], dict):
            raise ValueError(f"{section} must be an object, got {cfg[section]!r}")
        _check_keys(f"{section}.", cfg[section], defaults[section], _NOISE_LAYOUT if section == "noise" else ())
    for key, value in cfg.items():
        _check_finite(key, value)
        if key not in sections:
            _check_type(key, value, type(defaults[key]))
            continue
        for name, item in value.items():
            if name in defaults[key]:
                _check_type(f"{key}.{name}", item, type(defaults[key][name]))
    for name, value in cfg["dataset"].items():
        # sizes and counts are at least 1; scales, spreads and rates not negative
        low = 1 if type(defaults["dataset"][name]) is int else 0
        if value < low:
            raise ValueError(f"dataset.{name} must be >= {low}, got {value!r}")
    # building these raises ValueError on bad values
    TrainConfig(seed=0, **cfg["train"])
    if "noise" in sections:
        _noise_spec(cfg["noise"])
    if "loss" in sections:
        LossParams(cfg["loss"]["alpha"], cfg["loss"]["beta"])
    if experiment == "toy2d" and cfg["grid_resolution"] < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {cfg['grid_resolution']!r}")
    if experiment == "sweep":
        for name, values in cfg["sweep"].items():
            if not values:
                raise ValueError(f"sweep.{name} must be a nonempty list")
            for value in values:
                _check_type(f"sweep.{name} element", value, float)
            if any(v < 0 for v in values):
                raise ValueError(f"sweep.{name} must be non-negative")
            if len(set(values)) < len(values):  # each cell is keyed by its values
                raise ValueError(f"sweep.{name} must not repeat a value, got {values!r}")
    return cfg


def _check_keys(prefix: str, doc: dict, expected: dict, optional=()) -> None:
    """``doc`` holds every key of ``expected`` and no key outside it and ``optional``."""
    for key in doc:
        if key not in expected and key not in optional:
            raise ValueError(f"unknown config key '{prefix}{key}'; known keys are {sorted([*expected, *optional])}")
    for key in expected:
        if key not in doc:
            raise ValueError(f"missing config key '{prefix}{key}'")


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


# the noise section's optional layout keys
_NOISE_LAYOUT = ("sinks", "pairs", "group_size")


def _noise_spec(doc: dict) -> NoiseSpec:
    sinks, pairs, group_size = (doc.get(key) for key in _NOISE_LAYOUT)
    if sinks is not None and not _is_int_pair(sinks):
        raise ValueError(f"noise.sinks must be a list of two integers, got {sinks!r}")
    if pairs is not None and not (isinstance(pairs, list) and all(map(_is_int_pair, pairs))):
        raise ValueError(f"noise.pairs must be a list of [source, destination] integer pairs, got {pairs!r}")
    if group_size is not None:
        _check_type("noise.group_size", group_size, int)
    return NoiseSpec(
        topology=doc["topology"],
        eta=doc["eta"],
        sinks=None if sinks is None else tuple(sinks),
        pairs=None if pairs is None else [tuple(p) for p in pairs],
        group_size=group_size,
    )


def _is_int_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)


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


class _IntTexts(dict):
    """``sep + repr(v)`` per int ``v``, made on first lookup."""

    def __init__(self, sep: str):
        super().__init__()
        self.sep = sep

    def __missing__(self, value: int) -> str:
        text = self[value] = self.sep + int.__repr__(value)
        return text


def _int_matrix_chunks(matrix: np.ndarray, pad: str):
    """Yield the JSON text of ``matrix.tolist()`` for a 2-D integer array, one row at a time.

    Elements are looked up in a table of their text, comma, line break
    and indent included, with one entry per distinct value; a count matrix
    holds few distinct values, so few ints are formatted.
    """
    if not matrix.shape[0]:
        yield "[]"
        return
    inner = pad + "  "
    table = _IntTexts("," + inner + "  ")
    for i, row in enumerate(matrix):
        text = "".join(map(table.__getitem__, row.tolist()))
        # text[1:] drops the first element's comma
        yield ("," if i else "[") + inner + ("[" + text[1:] + inner + "]" if text else "[]")
    yield pad + "]"


# stands in for each integer array in the json.dumps text of a payload
_MARK = "\0int matrix\0"


def _write_json(path, payload) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.

    A payload may also hold 2-D integer arrays, such as confusion
    matrices: each is written as its ``tolist()``, that is, as
    ``json.dumps(..., default=np.ndarray.tolist)`` writes it, without the
    C x C list of Python ints being built.  The text around the arrays
    comes from one ``json.dumps`` call with a marker string in each
    array's place; only the arrays' text is streamed to the file.  Any
    other value json cannot write raises TypeError, and a payload string
    that holds the marker raises ValueError, both before a byte is
    written: ``path`` then keeps what it held before.
    """
    arrays = []

    def mark(value):
        if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu":
            arrays.append(value)
            return _MARK
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    pieces = json.dumps(payload, indent=2, sort_keys=True, default=mark).split(json.dumps(_MARK))
    if len(pieces) != len(arrays) + 1:
        raise ValueError("a string in the payload holds the integer array marker")

    def chunks():
        for piece, matrix in zip(pieces, arrays):
            yield piece
            line = piece[piece.rfind("\n") + 1:]
            yield from _int_matrix_chunks(matrix, "\n" + " " * (len(line) - len(line.lstrip(" "))))
        yield pieces[-1] + "\n"

    atomic_write_text(path, chunks())


def _report_payload(report) -> dict:
    """JSON-ready view of a report; wall time stays out of the artifacts."""
    return {
        "train_curve": [float(v) for v in report.train_curve],
        "clean_test_accuracy": report.clean_test_accuracy,
        "confusion_matrix": report.confusion_matrix,
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


def _run_methods(cfg: dict, methods: dict, data_for_seed, fit, row_metrics):
    """Train each method per seed; ``methods`` maps a name to ``(loss, weights, q)``.

    ``weights`` is the dual-margin ``(alpha, beta)``, or None for CE.  A
    name is a string, or a sweep cell's ``(alpha, beta)``, whose failures
    hold ``alpha`` and ``beta`` instead.  Weights LossParams rejects
    (alpha = beta = 0) and diverged runs are failures.  ``fit(data, q, tc)``
    returns ``(model, report)`` and ``row_metrics(report)`` the extra
    metrics.csv columns.  Returns the rows, the report (runs, summary,
    failures) and the first seed's model per completed method.
    """
    experiment = cfg["experiment"]
    rows: list[dict] = []
    runs: dict = {method: {} for method in methods}
    failures: list[dict] = []
    first_models: dict = {}

    for seed in cfg["seeds"]:
        data = data_for_seed(seed)
        for method, (loss, weights, q) in methods.items():
            name = {"method": method} if isinstance(method, str) else dict(zip(("alpha", "beta"), method))
            try:
                loss_params = None if weights is None else LossParams(*weights)
            except ValueError as exc:
                failures.append({**name, "seed": seed, "error": str(exc)})
                continue
            try:
                model, report = fit(data, q, _train_config(cfg, seed, loss, loss_params))
            except TrainingDivergedError as exc:
                failures.append({**name, "seed": seed, "error": str(exc)})
                continue
            print(
                f"[{experiment}] seed={seed} method={method} "
                f"acc={report.clean_test_accuracy:.4f} wall={report.wall_time:.2f}s"
            )
            runs[method][str(seed)] = _report_payload(report)
            alpha, beta = weights or (1.0, 0.0)
            rows.append(
                {
                    "experiment": experiment,
                    "seed": seed,
                    "method": method,
                    "alpha": alpha,
                    "beta": beta,
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


def _ce_and_dm(cfg: dict, q, ce_q=None) -> dict:
    """``methods`` for cross-entropy (with ``ce_q``) against dual-margin (with ``q``) at the config's weights."""
    weights = (cfg["loss"]["alpha"], cfg["loss"]["beta"])
    return {"ce": ("cross_entropy", None, ce_q), "dual_margin": ("dual_margin", weights, q)}


def _fit_train(split, q, tc: TrainConfig):
    """``fit`` for a (train, test) split; ``train`` is looked up per call."""
    train_ds, test_ds = split
    return train(train_ds, q, tc, test_data=test_ds)


def _transition(cfg: dict):
    """The noise spec's transition matrix.

    A dense (C, C) float array (8 MB at C = 1000), so callers build it
    where they need it and drop it at once: Q is its support, and each
    split corrupts its labels with a fresh one.
    """
    return build_transition(_noise_spec(cfg["noise"]), cfg["dataset"]["class_count"])


def _noisy_mixture_split(cfg: dict, seed: int):
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
    noisy = corrupt_labels(train_ds.clean_labels, _transition(cfg), seed)
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

    q = q_ordinal(C, cfg["window"], boundary="wrap")
    rows, result, first_models = _run_methods(
        cfg, _ce_and_dm(cfg, q), ring_split, _fit_train,
        lambda report: {"diagonal_mass": diagonal_mass(report.confusion_matrix)},
    )
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
    q = q_from_transition(_transition(cfg))
    rows, result, _ = _run_methods(
        cfg, _ce_and_dm(cfg, q, ce_q=q), lambda seed: _noisy_mixture_split(cfg, seed), _fit_train,
        lambda report: {"diagonal_mass": diagonal_mass(report.confusion_matrix), **report.mean_mass},
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
    q = q_from_transition(_transition(cfg))
    alphas = [float(a) for a in cfg["sweep"]["alpha_values"]]
    betas = [float(b) for b in cfg["sweep"]["beta_values"]]
    methods = {"ce": ("cross_entropy", None, None)}
    methods.update({(a, b): ("dual_margin", (a, b), q) for a in alphas for b in betas})
    _, report, _ = _run_methods(cfg, methods, lambda seed: _noisy_mixture_split(cfg, seed), _fit_train, lambda _: {})
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
