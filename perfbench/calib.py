"""Host-speed calibration: a fixed computation that no library change moves.

The shared 2-core host this benchmark was written on runs everything up to
2x slower for minutes at a time, and switches between a fast and a slow
speed within seconds, with CPU time rising as much as wall time.  A run
taken in a slow spell reads slow whatever the code does.

Every child (``child.py``) calls ``sample()`` from a SIGALRM handler every
SAMPLE_EVERY_S seconds, on its own main thread, so the sample runs on the
processor the workload runs on, at the time it runs.  ``sample()`` times a
short pure-Python loop, about 0.3 ms, which adds well under 1% to a run and
imports nothing.  The median sample of a run says how fast the host ran
during that run.  ``scale()`` turns it into the factor that converts the
run's timings into seconds at the host's reference speed, REFERENCE_S per
sample.
"""

import statistics
import time

REFERENCE_S = 5e-4  # the median sample on the 2-core host the bounds were set on
SAMPLE_EVERY_S = 0.2


def sample() -> float:
    """Seconds the fixed computation takes now."""
    t0 = time.perf_counter()
    seen, acc = {}, 0
    for i in range(3_000):
        seen[i & 63] = acc
        acc = (acc + 7 * i) % 1_000_003
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured alongside ``samples`` into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
