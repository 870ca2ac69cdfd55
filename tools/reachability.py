"""List every function of the library that no CLI run enters, and gate on the list.

    PYTHONPATH=src python3 tools/reachability.py

Under ``sys.setprofile``, ``dualmargin.cli.main`` runs every config of
``tools/artifact_digests.py``, one ``loss-eval`` and each row of
``BAD_INPUTS``, all into a temporary directory.  The tool then prints
each function or method defined in the package's ``*.py`` files that no
run entered, one sorted ``module.qualname`` line each, and a count line.
Lambdas and comprehensions are not listed, and code whose file is not
one of the package's, such as the methods ``@dataclass`` generates, is
not counted.

A config or ``loss-eval`` run that does not exit 0, a bad input that
does not exit 2, or a never-entered function not in ``UNREACHED`` is
named on stderr and the tool exits 1.  Progress lines of the runs go to
stderr.  Needs Python 3.11 or later (``co_qualname``); a whole pass takes
about half a minute on a 2-core host.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import tempfile
import types
from pathlib import Path

from artifact_digests import cli_argv, configs

# (family, config, key): one bad value per rule that a section's type or a
# builder owns rather than validate_config, a class count too large for any
# numpy array, a ring jitter too wide for finite angles, and a mixture
# separation too wide for finite class means.  Each exits 2 naming its key
# before any output
BAD_INPUTS = [
    ("noise-recovery", {"train": {"learning_rate": 0}}, "train.learning_rate"),
    ("noise-recovery", {"train": {"momentum": 1.0}}, "train.momentum"),
    ("noise-recovery", {"train": {"lr_schedule": "step"}}, "train.lr_schedule"),
    ("mil-toy", {"train": {"architecture": "cnn"}}, "train.architecture"),
    ("noise-recovery", {"noise": {"topology": "ring"}}, "noise.topology"),
    ("noise-recovery", {"noise": {"eta": 1.5}}, "noise.eta"),
    ("noise-recovery", {"noise": {"topology": "block_superclass", "group_size": 1}}, "noise.group_size"),
    ("noise-recovery", {"dataset": {"class_count": 10**12}}, "dataset.class_count"),
    ("sweep", {"dataset": {"class_count": 10**12}}, "dataset.class_count"),
    ("toy2d", {"dataset": {"class_count": 2}}, "dataset.class_count"),
    ("toy2d", {"window": 8}, "window"),
    ("mil-toy", {"dataset": {"n_bags": 1}}, "dataset.n_bags"),
    ("mil-toy", {"dataset": {"positive_instance_rate": 1.5}}, "dataset.positive_instance_rate"),
    ("toy2d", {"dataset": {"angular_noise_std": 1e308}}, "dataset.angular_noise_std"),
    *(
        (family, {"dataset": {"class_count": 20, "dim": 2, "class_separation": 1e308}}, "dataset.class_separation")
        for family in ("noise-recovery", "sweep")
    ),
]

# the functions that may stay unentered: perfbench/probe.py imports
# batch_loss, and loss_from_probs is the tests' oracle
UNREACHED = {"dualmargin.loss.batch_loss", "dualmargin.loss.loss_from_probs"}


def defined_functions(package: Path) -> dict:
    """``(file, first line, name)`` -> ``module.qualname`` of each named function in ``package/*.py``."""
    found = {}
    for path in sorted(package.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
            # a class body is no function, and a lambda or comprehension has no name to list
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                found[key] = f"{package.name}.{path.stem}.{code.co_qualname}"
    return found


def _runs(root: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every run, in run order."""
    z, q = root / "z.txt", root / "q.txt"
    z.write_text("0 0\n", encoding="utf-8")
    q.write_text("1 0\n0 1\n", encoding="utf-8")
    runs = [(cli_argv(root, *run), 0) for run in configs()]
    runs.append((["loss-eval", str(z), str(q), "--target", "0"], 0))
    runs += [(cli_argv(root, f"bad-{i}", family, doc, []), 2) for i, (family, doc, _) in enumerate(BAD_INPUTS)]
    return runs


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    failed = 0
    sys.setprofile(profile)
    try:
        import dualmargin.cli

        with tempfile.TemporaryDirectory() as tmp:
            for args, expected in _runs(Path(tmp)):
                with contextlib.redirect_stdout(sys.stderr):
                    code = dualmargin.cli.main(args)
                if code != expected:
                    print(f"{' '.join(args)}: exit {code}, expected {expected}", file=sys.stderr)
                    failed += 1
    finally:
        sys.setprofile(None)
    defined = defined_functions(Path(dualmargin.cli.__file__).parent)
    entered_keys = {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}
    never = sorted(name for key, name in defined.items() if key not in entered_keys)
    print("\n".join(never + [f"{len(never)} of {len(defined)} functions never entered"]))
    for name in never:
        if name not in UNREACHED:
            print(f"{name}: no CLI run enters it", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
