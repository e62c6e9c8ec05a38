"""Machine-speed calibration.

The machine this benchmark was written on runs the same code at speeds that
differ by up to 1.6x, in phases of a few seconds to tens of seconds, and CPU
time drifts with wall time, so the drift is the processor's, not waiting. A
fixed kernel timed between the measured operations tracks that speed: over
ten runs, raw mc_survey rates spread from 48.7k to 69.7k samples/s, and the
rescaled rates by 3.9 % (quartile distance over median). Every reported
time is therefore rescaled to the speed at which the kernel takes
REFERENCE_S, so that runs from slow and fast phases compare.
"""

from __future__ import annotations

import time

import numpy as np

#: Median kernel time on the reference machine (see README.md).
REFERENCE_S = 0.0130

#: Process start-up drifts with other things than compute speed (it rose by
#: 40 % over 20 minutes while the kernel's time did not move), so set-up is
#: rescaled by a bare interpreter that imports numpy, started between set-up
#: processes: REFERENCE_START_S / (median spawn-to-ready time of REFERENCE_START).
REFERENCE_START = "import numpy; print('READY', flush=True)"
REFERENCE_START_S = 0.150

_RNG = np.random.default_rng(20141012)
_VALUES = _RNG.standard_normal(50_000)
_INDEX = _RNG.integers(0, _VALUES.size, size=200_000, dtype=np.int32)
# Preallocated, so that the kernel allocates nothing: it must not set the
# measuring process's peak resident set.
_GATHERED = np.empty(_INDEX.size)
_FILL = np.empty((50, 20_000), dtype=np.int32)  # 4 MB, twice the L2 cache
_ROW = np.arange(20_000, dtype=np.int32)


def kernel_s() -> float:
    """Seconds taken by one run of the fixed kernel: an interpreted loop, a
    numpy gather-and-sort, and a 4 MB array fill, the three kinds of work the
    program does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(2):
        np.take(_VALUES, _INDEX, out=_GATHERED)
        _GATHERED.sort()
    for _ in range(4):
        _FILL[:] = _ROW
    elapsed = time.perf_counter() - t0
    if acc < 0 or _GATHERED[0] > _GATHERED[-1]:  # keeps the results live
        raise AssertionError("calibration kernel miscomputed")
    return elapsed


class Clock:
    """Kernel timings taken between the measured intervals of one process.

    Its intervals are rescaled together by ``scale()``, the ratio of
    REFERENCE_S to its median kernel time. Rescaling each interval by
    the kernel runs next to it was tried too: with the worker pool it spread
    more than the run-level ratio, since a single-threaded kernel does not
    see which core a pool task lands on.
    """

    def __init__(self):
        kernel_s()  # the first call warms the caches
        self.samples = [kernel_s()]

    def tick(self) -> None:
        self.samples.append(kernel_s())

    def scale(self) -> float:
        return REFERENCE_S / float(np.median(self.samples))
