"""Self-test of the benchmark harness at tiny sizes.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

Runs every workload for one epoch on tiny data (a 2x2 sweep grid) through
``run.run_workload``, untraced and traced, and checks that

* every run passes its own output checks; the traced run compares the
  artifacts of its traced and untraced runs byte for byte;
* every metric named in ``BENCHMARK.json`` is emitted with its unit;
* the traced run counts loss and evaluate calls exactly;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits nonzero without printing a result.

Exits with code 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys

import run

TINY = {
    "sweep": {
        "dataset": {"n_per_class": 20, "n_test_per_class": 10},
        "sweep": {"alpha_values": [0.1, 1.0], "beta_values": [1.0, 10.0]},
        "train": {"epochs": 1},
    },
    "wide-noise": {
        "dataset": {"class_count": 50, "n_per_class": 4, "n_test_per_class": 2},
        "train": {"epochs": 1},
    },
    "toy2d": {
        "dataset": {"n_per_class": 20, "n_test_per_class": 10},
        "grid_resolution": 5,
        "train": {"epochs": 1},
    },
}

# exact (loss calls, evaluate calls) of the tiny runs: every tiny training set
# is 2 batches of 128, one loss call per batch of a training run, one
# evaluate per training run, and noise-recovery scores each run once more
EXPECTED_CALLS = {
    "sweep": ((4 + 1) * 2, 4 + 1),
    "wide-noise": (2 * 2, 2 + 2),
    "toy2d": (10 * 2, 10),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, overrides in TINY.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            label = f"{name} trace={int(trace)}"
            before = len(problems)
            result = run.run_workload(name, seed=1, seconds=0, trace=trace, overrides=overrides)
            problems += [f"{label}: {p}" for p in result["problems"]]
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            if emitted != wanted:
                problems.append(f"{label}: emitted {emitted}, BENCHMARK.json names {wanted}")
            if trace and not result["problems"]:
                calls = (result["metrics"]["loss.calls"]["value"], result["metrics"]["training.evaluate.calls"]["value"])
                if calls != EXPECTED_CALLS[name]:
                    problems.append(f"{label}: (loss, evaluate) calls {calls}, expected {EXPECTED_CALLS[name]}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}")
    problems += check_bare_directory()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def check_bare_directory() -> list[str]:
    bare = run.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "toy2d", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if run.RUNS.exists() and not any(run.RUNS.iterdir()):
            run.RUNS.rmdir()
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
