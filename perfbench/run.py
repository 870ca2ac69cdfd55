"""Benchmark of the ``dualmargin`` experiment CLI.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sweep|wide-noise|toy2d|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload is one CLI experiment family with a config kept in
``perfbench/workloads/``; the seed list is derived from ``--seed``.  Every
run of the program is a fresh interpreter (``child.py``) that calls
``dualmargin.cli.main``, one at a time, with OpenBLAS at its default thread
count.

``--trace 0`` measures the end-to-end metrics: medians over whole runs of the
workload, as many as fit in ``--seconds`` and at least MIN_RUNS.  Each child
samples the host's speed while it runs (``calib.py``), and each run's
timings are reported in seconds at the host's reference speed.
``--trace 1`` alternates an untraced and a traced run for ``--seconds``,
then runs the fixed-shape kernel probe (``probe.py``), and reports the
per-layer metrics.

Every run of the program is checked: exit code 0, ``metrics.csv``,
``report.json`` and ``manifest.json`` parse with the expected row counts,
every repeat writes byte-identical artifacts, and at the reference seed the
accuracies match ``perfbench/reference.json``.  The traced run must also
account for its wall time.  A failed check prints ``"correct": false`` and
exits with code 1.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count training runs.  The line before it records the machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUNS = ROOT / ".perfbench_runs"

MIN_RUNS = 3  # least number of whole runs per untraced invocation
PROBE_BUDGET_S = 0.2  # timing budget per probed call
DEADLINE_S = 170.0  # every child is killed after this much time in one invocation
SLOWDOWN_ROOM = 2.0  # a run starts only if one this many times the longest so far still fits
ACCOUNTING_SHARE = 0.05  # traced wall time no named layer may leave unexplained ...
ACCOUNTING_FLOOR_S = 0.1  # ... or this much, whichever is larger


@dataclass(frozen=True)
class Workload:
    family: str  # CLI subcommand
    seeds_per_run: int

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.seeds_per_run + k for k in range(self.seeds_per_run)]


WORKLOADS = {
    "sweep": Workload("sweep", 1),
    "wide-noise": Workload("noise-recovery", 1),
    "toy2d": Workload("toy2d", 5),
}


class Run:
    """One benchmark invocation on one workload: its files, checks and counts."""

    def __init__(self, name: str, seed: int, overrides: dict | None):
        self.name, self.seed = name, seed
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.workload = WORKLOADS[name]
        self.dir = RUNS / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out = self.dir / "out"
        cfg = json.loads((BENCH / "workloads" / f"{name}.json").read_text(encoding="utf-8"))
        self.cfg = _merge(cfg, overrides or {})
        self.cfg["seeds"] = self.workload.seeds(seed)
        config_path = self.dir / "config.json"
        config_path.write_text(json.dumps(self.cfg, indent=2), encoding="utf-8")
        self.argv = [self.workload.family, "--config", str(config_path), "--out", str(self.out)]
        self.check_reference = overrides is None
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.hashes: dict[str, str] | None = None
        self.accuracy: dict[str, float] = {}
        self.failures_per_run = 0
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        if RUNS.exists() and not any(RUNS.iterdir()):
            RUNS.rmdir()

    def warm_up(self) -> None:
        """Import the program once, which byte-compiles the sources on a fresh checkout."""
        cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import dualmargin.cli"]
        code, _, _ = _run_child(cmd, self.dir / "warm-up-log.txt", self.deadline)
        if code != 0:
            self.problems.append(f"importing dualmargin.cli exited with code {code}: {_tail(self.dir / 'warm-up-log.txt')}")

    def may_start(self, seconds: float, done: int, least: int, longest_s: float) -> bool:
        """Whether another run (or pair of runs) taking about ``longest_s`` should start.

        It should while fewer than ``least`` are done or it would end within
        ``seconds``, and only if one SLOWDOWN_ROOM times as long still ends
        before the deadline, so that a slow run is measured, not killed.
        """
        elapsed = time.monotonic() - self.start
        if self.problems or (done and elapsed + SLOWDOWN_ROOM * longest_s > DEADLINE_S):
            return False
        return done < least or elapsed + longest_s <= seconds

    def spawn(self, mode: str) -> dict:
        """Run the workload once in a fresh interpreter; check its outputs."""
        self._count += 1
        record_path = self.dir / f"record-{self._count}.json"
        log_path = self.dir / f"log-{self._count}.txt"
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(record_path), "--", *self.argv]
        code, spawn_t, exit_t = _run_child(cmd, log_path, self.deadline)
        record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.exists() else {}
        if code != 0 or not record:
            self.problems.append(f"{mode} run exited with code {code}: {_tail(log_path)}")
        elif record["first_train_t"] is None:
            self.problems.append(f"{mode} run never reached a training call")
        else:
            record["setup_s"] = record["first_train_t"] - spawn_t
            record["scale"] = calib.scale(record["host_samples_s"])
        record.update(returncode=code, wall_s=exit_t - spawn_t)
        self._check_artifacts(mode, code)
        return record

    def _check_artifacts(self, mode: str, code) -> None:
        runs = self._expected_runs()
        self.attempted += runs
        if code != 0 or not self.out.is_dir():
            if code == 0:
                self.problems.append(f"{mode} run wrote no output directory")
            self.failed += runs
            shutil.rmtree(self.out, ignore_errors=True)
            return
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(self.out.iterdir())}
        if self.hashes is None:
            self.hashes = hashes
            self._parse_outputs()
        elif hashes != self.hashes:
            differ = sorted(k for k in set(hashes) | set(self.hashes) if hashes.get(k) != self.hashes.get(k))
            self.problems.append(f"{mode} run wrote artifacts that differ from the first run: {differ}")
        self.failed += self.failures_per_run
        shutil.rmtree(self.out)

    def _expected_runs(self) -> int:
        seeds = len(self.cfg["seeds"])
        if self.workload.family == "sweep":
            grid = self.cfg["sweep"]
            return seeds * (len(grid["alpha_values"]) * len(grid["beta_values"]) + 1)
        return 2 * seeds

    def _parse_outputs(self) -> None:
        try:
            with open(self.out / "metrics.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.problems.append(f"artifacts do not parse: {exc}")
            return
        self.failures_per_run = len(report.get("failures", []))
        expected_rows = self._expected_runs() - self.failures_per_run
        if self.workload.family == "sweep":
            grid = report.get("accuracy_grid", [])
            filled = sum(v is not None for row in grid for v in row)
            if filled != expected_rows - 1:
                self.problems.append(f"report.json accuracy_grid has {filled} cells, expected {expected_rows - 1}")
        else:
            done = sum(len(per_seed) for per_seed in report.get("runs", {}).values())
            if done != expected_rows:
                self.problems.append(f"report.json holds {done} runs, expected {expected_rows}")
        if len(rows) != expected_rows:
            self.problems.append(f"metrics.csv has {len(rows)} rows, expected {expected_rows}")
        if manifest.get("seeds") != self.cfg["seeds"]:
            self.problems.append(f"manifest.json seeds {manifest.get('seeds')} != {self.cfg['seeds']}")
        for method in ("dual_margin", "ce"):
            if not any(r["method"] == method for r in rows):
                self.problems.append(f"metrics.csv has no {method} row")
        # accuracies come from report.json: the sweep's metrics.csv writes numpy reprs
        if self.workload.family == "sweep":
            dm = [v for row in report["accuracy_grid"] for v in row if v is not None]
            ce = [report["ce_baseline"]]
        else:
            dm = [r["clean_test_accuracy"] for r in report["runs"]["dual_margin"].values()]
            ce = [r["clean_test_accuracy"] for r in report["runs"]["ce"].values()]
        if dm and ce:
            self.accuracy = {"accuracy_dm": statistics.fmean(dm), "accuracy_ce": statistics.fmean(ce)}
        else:
            self.problems.append("report.json holds no completed dual-margin or CE run")
        if self.check_reference:
            self._check_reference()

    def _check_reference(self) -> None:
        ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        if self.seed != ref["seed"]:
            return
        tol = ref["accuracy_tolerance_abs"]
        for metric, expected in ref["accuracy"][self.name].items():
            got = self.accuracy.get(metric)
            if got is None or abs(got - expected) > tol:
                self.problems.append(f"{metric} = {got} at seed {self.seed}, reference {expected} +- {tol}")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        out[key] = _merge(out[key], value) if isinstance(value, dict) and isinstance(out.get(key), dict) else value
    return out


def _run_child(cmd: list[str], log_path: Path, deadline: float) -> tuple[int | str, float, float]:
    with open(log_path, "w", encoding="utf-8") as log:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - spawn_t, 0.0))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:  # also on an interrupt: leave no child running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        exit_t = time.monotonic()
    return code, spawn_t, exit_t


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def _median(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def _spans(record: dict, prefix: str, field: int = 1):
    """Sum of one field (0 calls, 1 total s, 2 self s) over the span names with this prefix."""
    return sum(v[field] for k, v in record["stats"].items() if k.startswith(prefix))


def measure_end_to_end(run: Run, seconds: float) -> dict[str, float]:
    run.warm_up()
    whole: list[dict] = []
    while run.may_start(seconds, len(whole), MIN_RUNS, max((r["wall_s"] for r in whole), default=0.0)):
        whole.append(run.spawn("plain"))
    if run.problems:
        return {}
    print(f"samples: wall_s {[r['wall_s'] for r in whole]}, setup_s {[r['setup_s'] for r in whole]}")
    print(f"host: timings scaled to reference speed by {[r['scale'] for r in whole]}")
    return {
        "wall_s": _median(whole, lambda r: r["wall_s"] * r["scale"]),
        "setup_s": _median(whole, lambda r: r["setup_s"] * r["scale"]),
        "train_samples_per_s": _median(
            whole, lambda r: r["counts"]["train_samples"] / _spans(r, "training.train") / r["scale"]
        ),
        "peak_rss_mb": _median(whole, lambda r: r["peak_rss_kb"] / 1024.0),
        "completed_run_share": (run.attempted - run.failed) / run.attempted,
        **run.accuracy,
    }


def layer_metrics(traced: dict, plain: dict) -> dict[str, float]:
    """Per-layer figures from one traced run and the untraced run next to it."""
    counts = traced["counts"]

    def total(prefix: str, field: int = 1) -> float:
        return float(_spans(traced, prefix, field))

    train_s = total("training.train")
    loss_s = total("loss.")
    corrupt_s = total("noise.corrupt_labels")
    # self time of every named layer below run_experiment; what is left of
    # cli.main and run_experiment is time that no named layer explains
    named_self_s = total("", 2) - total("experiments.run", 2)
    # what the untraced run spends outside the program: interpreter start and
    # exit plus the child's own bookkeeping
    untraced_overhead_s = plain["wall_s"] - plain["import_s"] - plain["main_s"]
    accounted_s = untraced_overhead_s + traced["import_s"] + named_self_s
    return {
        "cli.import_s": traced["import_s"],
        "datasets.busy_s": total("datasets."),
        "noise.busy_s": total("noise."),
        "noise.labels_per_s": counts.get("labels_corrupted", 0) / corrupt_s if corrupt_s else 0.0,
        "plausibility.busy_s": total("plausibility."),
        "loss.calls": _spans(traced, "loss.", 0),
        "loss.busy_s": loss_s,
        "loss.call_us.p50": traced.get("loss_call_us_p50", 0.0),
        "loss.call_us.p90": traced.get("loss_call_us_p90", 0.0),
        "loss.share_of_train": loss_s / train_s,
        "training.self_s": total("training.train", 2),
        "training.step_us": (total("training.train", 2) + loss_s) / counts["train_steps"] * 1e6,
        "training.evaluate.calls": _spans(traced, "training.evaluate", 0),
        "training.evaluate_s": total("training.evaluate"),
        "experiments.self_s": total("experiments.run", 2),
        "experiments.serialize_s": total("experiments.serialize", 2),
        "experiments.write_s": total("experiments.write"),
        "experiments.bytes_written": counts.get("bytes_written", 0),
        "trace.overhead_share": traced["wall_s"] * traced["scale"] / (plain["wall_s"] * plain["scale"]) - 1.0,
        "trace.unaccounted_s": traced["wall_s"] - accounted_s,
    }


def measure_layers(run: Run, seconds: float) -> dict[str, float]:
    run.warm_up()
    pairs: list[dict] = []
    longest_s = 0.0
    while run.may_start(seconds, len(pairs), 1, longest_s):
        plain, traced = run.spawn("plain"), run.spawn("trace")
        if run.problems:
            break
        longest_s = max(longest_s, plain["wall_s"] + traced["wall_s"])
        pairs.append(layer_metrics(traced, plain))
        unaccounted = pairs[-1]["trace.unaccounted_s"]
        print(f"accounting: traced wall_s = {traced['wall_s']:.6g} s, unaccounted_s = {unaccounted:.6g} s")
        if abs(unaccounted) > max(ACCOUNTING_SHARE * traced["wall_s"], ACCOUNTING_FLOOR_S):
            run.problems.append(
                f"spans leave {unaccounted:.4g} s of {traced['wall_s']:.4g} s traced wall time unaccounted"
            )
    if not pairs:
        return {}
    metrics = {key: statistics.median_low(p[key] for p in pairs) for key in pairs[0]}
    record_path = run.dir / "probe.json"
    cmd = [sys.executable, str(BENCH / "probe.py"), str(record_path), str(run.seed), str(PROBE_BUDGET_S)]
    code, _, _ = _run_child(cmd, run.dir / "probe-log.txt", run.deadline)
    if code != 0:
        run.problems.append(f"kernel probe exited with code {code}: {_tail(run.dir / 'probe-log.txt')}")
        return {}
    metrics.update(json.loads(record_path.read_text(encoding="utf-8")))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, overrides: dict | None = None) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    run = Run(name, seed, overrides)
    try:
        values = measure_layers(run, seconds) if trace else measure_end_to_end(run, seconds)
    finally:
        run.close()
    missing = sorted(set(units) - set(values))
    if values and missing:
        run.problems.append(f"metrics not measured: {missing}")
    return {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
        "problems": run.problems,
    }


def machine() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        blas = {}
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
    }


def _print_result(label: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{label}{name} = {metric['value']!r} {metric['unit']}")
    print(f"{label}training runs attempted = {result['attempted']}, failed = {result['failed']}")
    for problem in result["problems"]:
        print(f"{label}check failed: {problem}", file=sys.stderr)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the handlers that kill a running child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "dualmargin" / "cli.py").is_file():
        print(f"error: no dualmargin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_result(f"{name}: " if len(names) > 1 else "", results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(json.dumps({key: final[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
