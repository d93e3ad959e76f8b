"""Machine-speed calibration of measured times.

The machine this benchmark was written on (2 shared vCPUs) changes speed by
up to 1.8x within a minute, so a raw wall time says as much about the host
as about negprob. Next to each timed piece of work, the benchmark times a
fixed pure-Python kernel that does the kind of work the library does (float
tuples, math.log, fsum) and never calls negprob, in the same process that
does the work. A time is then reported as

    wall time x REFERENCE_S / local kernel time,

i.e. seconds on a machine where the kernel takes REFERENCE_S. The local
kernel time of a sample is the median of its own calibration and those of
HALF_WINDOW neighbours on each side, which follows speed changes that last
seconds without the noise of a single 6 ms sample.

The kernel must run in the process that did the work: a child process may
run on the other vCPU, whose speed the parent does not see. So CLI
operations, which run ``python -m negprob.cli`` unmodified, stay raw.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

ROUNDS = 60
REFERENCE_S = 0.006
HALF_WINDOW = 2


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(ROUNDS):
        xs = tuple((i + 1.0) / 257.0 for i in range(256))
        acc += math.fsum(x * math.log(x) for x in xs)
    return perf_counter() - t0


def calibrated(times: list[float], calibrations: list[float]) -> list[float]:
    """Each time rescaled by the local kernel time around it."""
    h = HALF_WINDOW
    return [
        t * REFERENCE_S / statistics.median(calibrations[max(i - h, 0) : i + h + 1])
        for i, t in enumerate(times)
    ]
