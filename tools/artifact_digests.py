"""Run a fixed list of experiment configs and print the sha256 of every artifact.

    PYTHONPATH=src python3 tools/artifact_digests.py ROOT

Each config runs through ``dualmargin.cli.main``, imported from the
``PYTHONPATH`` given, into ``ROOT/<name>``.  ``report.json`` records its
output path, so two listings compare only when both were made under the
same ROOT; ROOT must not exist or be empty.  The listing is one
``sha256  path`` line per file, paths relative to ROOT and sorted, then
one ``sha256  TOTAL (N files)`` line, the digest of the lines above it.

To check that a change keeps every artifact's bytes, run the tool once
on each tree, emptying ROOT in between, and ``diff`` the two listings:

    git worktree add ../base BASE
    PYTHONPATH=../base/src python3 tools/artifact_digests.py /tmp/d > base.txt
    rm -rf /tmp/d
    PYTHONPATH=src python3 tools/artifact_digests.py /tmp/d > head.txt
    diff base.txt head.txt

Progress lines of the runs go to stderr.  The list covers every family
at its default and at a tiny config, the benchmark's workloads, both
architectures and schedules, a tiny toy2d under ``mlp1`` at momentum 0
with a cosine schedule (240 samples in batches of 128, so the last batch
is shorter), every noise topology at C = 10 and at
C = 1000 (block superclass noise there with groups of 8 and of 100), an
``mlp1`` noise-recovery at C = 1000 (its output layer's input and bias row
make a (128, 65) x (65, 1000) product, and its artifacts differ between
one OpenBLAS thread and several, so two listings compare only at one
thread count), a
sweep at C = 1000, column noise at C = 3000 (every training batch spans
several of ``batch_loss_and_grad``'s row blocks, and the last batch is
shorter), column noise at C = 4000 and eta 0.1 in batches of 32 (1 MB of
logits each: the 6 batches with no sink label take the single-cell
gradient, the 119 with one take the kernel), mixtures whose class count
equals their dimension (every distance between class means ties) and of
dimension 64 (means in Fortran order), a mixture at ``class_separation``
0 (every class mean at the origin), MIL bags at
``positive_instance_rate`` 0.01 (positive bags whose one positive
instance is forced) and 1.0 (no negative instance in a positive bag, so
that recall is ``null``), the CLI's seed and weight flags, and diverging
runs whose ``failures`` text is an artifact: 119 files in all.  A whole
run takes about a minute on a 2-core host, most of it the default sweep.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"

TINY = {
    "toy2d": {"seeds": [0], "dataset": {"n_per_class": 30, "n_test_per_class": 30}, "train": {"epochs": 3}, "grid_resolution": 7},
    "noise-recovery": {"seeds": [0, 1], "dataset": {"class_count": 1000, "n_per_class": 2, "n_test_per_class": 2}, "train": {"epochs": 1}},
    "mil-toy": {"seeds": [0], "dataset": {"n_bags": 8, "bag_size": 10}, "train": {"epochs": 3}},
    # the (0, 0) cell is recorded as a failure per seed
    "sweep": {"seeds": [0, 1], "dataset": {"n_per_class": 20, "n_test_per_class": 20}, "train": {"epochs": 1}, "sweep": {"alpha_values": [0.0, 1.0], "beta_values": [0.0]}},
}

# a small mixture for the noise layouts, the other architecture and divergence
_MIXTURE = {"seeds": [0], "dataset": {"n_per_class": 20, "n_test_per_class": 20}, "train": {"epochs": 2}}
_MLP1 = {"architecture": "mlp1", "hidden_units": 8, "lr_schedule": "constant"}
# momentum 0 under the families' cosine schedule
_MLP1_MOMENTUM_0 = {**_MLP1, "momentum": 0.0, "lr_schedule": "cosine"}
# the C = 1000 runs: the sweep's, and noise-recovery's under each topology but column
_WIDE = {"seeds": [0, 1], "dataset": {"class_count": 1000, "n_per_class": 2, "n_test_per_class": 2}, "train": {"epochs": 1}}
# every batch is 1 MB of logits; one with no sink label has a single non-target
# cell per row, while a sink label keeps both cells at eta 0.1
_NOISE_WIDE_MIXED = {
    "seeds": [0],
    "dataset": {"class_count": 4000, "n_per_class": 1, "n_test_per_class": 1},
    "noise": {"topology": "column", "eta": 0.1},
    "train": {"epochs": 1, "batch_size": 32},
}
_DIVERGING = {"seeds": [0, 1], "dataset": {"n_per_class": 20, "n_test_per_class": 20}, "train": {"epochs": 2, "learning_rate": 1e308}}


def _merged(base: dict, **sections) -> dict:
    return {**base, **{key: {**base.get(key, {}), **value} for key, value in sections.items()}}


def _workload(name: str) -> dict:
    return json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))


def configs() -> list[tuple[str, str, dict, list[str]]]:
    """(name, family, config, extra CLI flags) of every run, in run order."""
    runs = [(f"{family}-default", family, {}, []) for family in TINY]
    runs += [(f"{family}-tiny", family, doc, []) for family, doc in TINY.items()]
    runs += [
        ("bench-sweep", "sweep", _workload("sweep"), ["--seed", "0"]),
        ("bench-toy2d", "toy2d", _workload("toy2d"), ["--seed", "0"]),
        ("bench-wide-noise-seeds-0-2", "noise-recovery", {**_workload("wide-noise"), "seeds": [0, 1, 2]}, []),
        ("toy2d-mlp1-constant", "toy2d", _merged(TINY["toy2d"], train=_MLP1), []),
        ("toy2d-mlp1-momentum-0", "toy2d", _merged(TINY["toy2d"], train=_MLP1_MOMENTUM_0), []),
        ("noise-recovery-mlp1-constant", "noise-recovery", _merged(_MIXTURE, train=_MLP1), []),
        ("noise-wide-mlp1", "noise-recovery", _merged(_WIDE, train={"architecture": "mlp1"}), []),
        ("noise-asymmetric-pairs", "noise-recovery", _merged(_MIXTURE, noise={"topology": "asymmetric_pairs", "eta": 0.45, "pairs": [[9, 1], [2, 0], [3, 5], [4, 7]]}), []),
        ("noise-cyclic-superclass", "noise-recovery", _merged(_MIXTURE, noise={"topology": "cyclic_superclass", "eta": 0.45, "group_size": 5}), []),
        ("noise-block-superclass", "noise-recovery", _merged(_MIXTURE, noise={"topology": "block_superclass", "eta": 0.6, "group_size": 5}), []),
        ("noise-column-sinks", "noise-recovery", _merged(_MIXTURE, noise={"sinks": [3, 5]}), []),
        ("noise-class-count-equals-dim", "noise-recovery", _merged(_MIXTURE, dataset={"class_count": 16, "dim": 16}), []),
        ("noise-dim-64", "noise-recovery", _merged(_MIXTURE, dataset={"class_count": 10, "dim": 64}), []),
        ("noise-class-separation-0", "noise-recovery", _merged(_MIXTURE, dataset={"class_separation": 0.0}), []),
        ("mil-toy-forced-positive", "mil-toy", _merged(TINY["mil-toy"], dataset={"bag_size": 5, "positive_instance_rate": 0.01}), []),
        ("mil-toy-all-positive", "mil-toy", _merged(TINY["mil-toy"], dataset={"positive_instance_rate": 1.0}), []),
        ("toy2d-flags", "toy2d", TINY["toy2d"], ["--seed", "3", "--alpha", "0.5", "--beta", "2.5"]),
        ("sweep-wide", "sweep", _merged(_WIDE, sweep={"alpha_values": [0.1, 1.0], "beta_values": [0.0, 1.0]}), []),
        ("noise-wide-asymmetric-pairs", "noise-recovery", _merged(_WIDE, noise={"topology": "asymmetric_pairs", "eta": 0.45, "pairs": [[999, 0], [0, 1], [500, 499]]}), []),
        ("noise-wide-cyclic-superclass", "noise-recovery", _merged(_WIDE, noise={"topology": "cyclic_superclass", "eta": 0.45, "group_size": 10}), []),
        ("noise-wide-block-superclass", "noise-recovery", _merged(_WIDE, noise={"topology": "block_superclass", "eta": 0.6, "group_size": 8}), []),
        ("noise-wide-block-superclass-100", "noise-recovery", _merged(_WIDE, noise={"topology": "block_superclass", "eta": 0.6, "group_size": 100}), []),
        ("noise-wide-3000", "noise-recovery", _merged(_WIDE, dataset={"class_count": 3000, "n_per_class": 1, "n_test_per_class": 1}), []),
        ("noise-wide-mixed", "noise-recovery", _NOISE_WIDE_MIXED, []),
        ("sweep-diverging", "sweep", _merged(_DIVERGING, sweep={"alpha_values": [0.0, 0.1], "beta_values": [0.0, 1.0]}), []),
        ("noise-recovery-diverging", "noise-recovery", _DIVERGING, []),
    ]
    return runs


def cli_argv(root: Path, name: str, family: str, doc: dict, flags: list[str]) -> list[str]:
    """Write ``doc`` to ``ROOT/configs/<name>.json``; the argv that runs it into ``ROOT/<name>``."""
    path = root / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return [family, "--config", str(path), "--out", str(root / name), *flags]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    import dualmargin.cli

    print(f"dualmargin from {Path(dualmargin.cli.__file__).parent}", file=sys.stderr)
    runs = configs()
    for run in runs:
        with contextlib.redirect_stdout(sys.stderr):
            code = dualmargin.cli.main(cli_argv(root, *run))
        if code != 0:
            print(f"{run[0]}: exit {code}", file=sys.stderr)
            return 1
    lines = []
    for name, *_ in runs:
        for path in sorted(p for p in (root / name).rglob("*") if p.is_file()):
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}")
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print("\n".join(lines))
    print(f"{total}  TOTAL ({len(lines)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
