"""One benchmark child: run ``dualmargin.cli.main`` in a fresh interpreter.

Usage::

    python3 perfbench/child.py MODE RECORD_JSON -- CLI_ARG...

MODE is one of

* ``plain``  -- end-to-end run: only the calls into ``train`` and
  ``train_mil_instances`` are timed (a few dozen calls per run); the first
  one also gives the set-up timestamp;
* ``trace``  -- per-layer run: calls into each module's public functions
  are wrapped and timed, and self times are kept per span name.

In both modes the child samples the host's speed (``calib.py``) from a
SIGALRM handler, from its start to its end.  The child writes RECORD_JSON
when ``main`` returns and exits with its code.
The first-training-call timestamp uses ``time.monotonic`` (system-wide on
Linux), so the parent can subtract its own spawn time from it.
"""

import inspect
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

import calib

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Wraps module attributes and keeps per-span-name calls, total and self time."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.first_call = {}  # name -> monotonic time of the first call
        self.counts = {}  # counter -> work counted from the calls' arguments
        self.loss_call_s = []
        self._child_s = [0.0]  # time covered by child spans, one slot per open span

    def wrap(self, module, attr, name, count=None, keep_durations=False):
        """Replace ``module.attr`` by a timed wrapper; ``count(arguments, result)`` adds work counts."""
        fn = getattr(module, attr)
        signature = inspect.signature(fn)
        stats, first_call, counts, child_s = self.stats, self.first_call, self.counts, self._child_s
        durations = self.loss_call_s
        perf_counter, monotonic = time.perf_counter, time.monotonic

        def wrapped(*args, **kwargs):
            if name not in first_call:
                first_call[name] = monotonic()
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = child_s.pop()
                child_s[-1] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - inner
                if keep_durations:
                    durations.append(dur)
            if count is not None:
                for key, value in count(signature.bind(*args, **kwargs).arguments, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        setattr(module, attr, wrapped)


def _sgd_work(n, cfg):
    return {"train_samples": n * cfg.epochs, "train_steps": cfg.epochs * math.ceil(n / cfg.batch_size)}


def _train_work(call, result):
    return _sgd_work(int(call["data"].features.shape[0]), call["cfg"])


def _mil_work(call, result):
    return _sgd_work(sum(len(b) for b in call["bags"].bags), call["cfg"])


def _labels(call, result):
    return {"labels_corrupted": int(len(result))}


def _bytes(call, result):
    return {"bytes_written": Path(call["path"]).stat().st_size}


def _peak_rss_kb():
    """High-water resident set of this process's own memory.

    ``ru_maxrss`` keeps the high-water mark of the process image that exec
    replaced, here the parent's, so the kernel's per-image ``VmHWM`` comes
    first where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def install(tracer, mode):
    import dualmargin.cli as cli
    import dualmargin.experiments as ex
    import dualmargin.training as tr

    tracer.wrap(ex, "train", "training.train", _train_work)
    tracer.wrap(ex, "train_mil_instances", "training.train_mil_instances", _mil_work)
    if mode == "plain":
        return
    tracer.wrap(cli, "run_experiment", "experiments.run")
    tracer.wrap(ex, "atomic_write_text", "experiments.write", _bytes)
    # the private helper that serialises report.json and manifest.json, so that
    # the json.dumps of a C x C report is not left in the experiments' self time
    tracer.wrap(ex, "_write_json", "experiments.serialize")
    for attr in ("make_gaussian_mixture", "make_ring", "make_mil_bags"):
        tracer.wrap(ex, attr, f"datasets.{attr}")
    tracer.wrap(ex, "build_transition", "noise.build_transition")
    tracer.wrap(ex, "corrupt_labels", "noise.corrupt_labels", _labels)
    for attr in ("q_from_transition", "q_ordinal", "q_mil"):
        tracer.wrap(ex, attr, f"plausibility.{attr}")
    tracer.wrap(ex, "evaluate", "training.evaluate")
    tracer.wrap(tr, "evaluate", "training.evaluate")
    tracer.wrap(ex, "predict_logits", "training.predict_logits")
    tracer.wrap(tr, "batch_loss_and_grad", "loss.batch_loss_and_grad", keep_durations=True)
    tracer.wrap(tr, "_ce_loss_and_grad", "loss.ce_loss_and_grad", keep_durations=True)


def main(argv):
    mode, record_path = argv[0], Path(argv[1])
    if mode not in ("plain", "trace") or argv[2] != "--":
        raise SystemExit("usage: child.py plain|trace RECORD_JSON -- CLI_ARG...")
    cli_argv = argv[3:]
    host_samples = []
    signal.signal(signal.SIGALRM, lambda signum, frame: host_samples.append(calib.sample()))
    signal.setitimer(signal.ITIMER_REAL, calib.SAMPLE_EVERY_S, calib.SAMPLE_EVERY_S)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import dualmargin.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer, mode)
    t0 = time.perf_counter()
    code = dualmargin.cli.main(cli_argv)
    main_s = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    host_samples.append(calib.sample())  # a run shorter than one period still gets a sample

    record = {
        "import_s": import_s,
        "main_s": main_s,
        "first_train_t": min(
            (t for name, t in tracer.first_call.items() if name.startswith("training.train")), default=None
        ),
        "stats": tracer.stats,
        "counts": tracer.counts,
        "peak_rss_kb": _peak_rss_kb(),
        "host_samples_s": host_samples,
    }
    if tracer.loss_call_s:
        import numpy as np

        us = np.asarray(tracer.loss_call_s) * 1e6
        record["loss_call_us_p50"] = float(np.percentile(us, 50))
        record["loss_call_us_p90"] = float(np.percentile(us, 90))
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
