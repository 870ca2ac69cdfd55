"""Command-line entry point for the experiment suite.

Subcommands: ``loss-eval``, ``toy2d``, ``noise-recovery``, ``mil-toy``,
``sweep``.  Experiment commands read an optional JSON config
(``--config``) layered over per-experiment defaults, with ``--seed`` and
``--out`` as flag-level overrides; ``toy2d``, ``noise-recovery`` and
``mil-toy`` also take ``--alpha`` and ``--beta`` for their ``loss``
section (``sweep`` reads its weights from ``sweep.alpha_values`` and
``sweep.beta_values``).

Exit codes: 0 success, also when runs fail (each is recorded in
``report.json``'s ``failures`` and printed to stderr as ``[family] seed=...
method=... FAILED: <error>``, then ``N of M runs failed``); 1 an i/o
failure or out of memory; 2 invalid input, a bad config value exiting
before any run, naming its ``section.key``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import EXPERIMENTS, default_config, load_config, merge_config, run_experiment
from .loss import LossParams, loss_from_logits
from .plausibility import load_q_text

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualmargin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    le = sub.add_parser("loss-eval", help="evaluate the loss breakdown for one logit vector")
    le.add_argument("z_file", help="text file of whitespace-separated logits")
    le.add_argument("q_file", help="plausibility matrix in 0/1 row format")
    le.add_argument("--target", type=int, required=True, help="target class index")
    le.add_argument("--alpha", type=float, default=1.0)
    le.add_argument("--beta", type=float, default=0.0)

    for experiment in EXPERIMENTS:
        name = experiment.replace("_", "-")
        p = sub.add_parser(name, help=f"run the {name} experiment family")
        p.add_argument("--config", help="JSON config file layered over defaults")
        p.add_argument("--seed", type=int, help="replace the seed list with this single seed")
        p.add_argument("--out", help="output directory")
        if "loss" in default_config(experiment):
            p.add_argument("--alpha", type=float, help="dual-margin alpha override")
            p.add_argument("--beta", type=float, help="dual-margin beta override")
    return parser


def _load_logits(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ValueError(f"cannot read logits file {path}: {exc}") from exc
    if not tokens:
        raise ValueError(f"logits file {path} is empty")
    try:
        return np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"logits file {path}: {exc}") from exc


def _cmd_loss_eval(args) -> int:
    z = _load_logits(args.z_file)
    q = load_q_text(args.q_file)
    params = LossParams(alpha=args.alpha, beta=args.beta, allow_degenerate=True)
    breakdown = loss_from_logits(z, args.target, q, params)
    for key, value in breakdown.as_dict().items():
        print(f"{key} = {value:.17g}")
    return EXIT_OK


def _cmd_experiment(command: str, args) -> int:
    experiment = command.replace("-", "_")
    cfg = default_config(experiment)
    if args.config is not None:
        cfg = merge_config(cfg, load_config(args.config))
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    if args.out is not None:
        cfg["output_dir"] = args.out
    for key in ("alpha", "beta"):
        # a loss section that is no object is left for run_experiment to reject
        if getattr(args, key, None) is not None and isinstance(cfg["loss"], dict):
            cfg["loss"][key] = getattr(args, key)
    cfg["experiment"] = experiment
    run_experiment(cfg)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "loss-eval":
            return _cmd_loss_eval(args)
        return _cmd_experiment(args.command, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
