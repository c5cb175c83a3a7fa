"""Host-speed calibration.

The sandbox this benchmark was sized on changes speed from second to
second (two regimes about 25 % apart, and a 2x slower one under
neighbour load), and ``process_time`` moves with it, so run medians of
raw seconds of the same code spread by up to a quarter of their median.
A fixed pure-Python loop timed right before and right after each rep
moves the same way: the rep's wall time divided by the mean of its two
neighbouring calibrations spreads by 3-12 % on a noisy day and 1 % on a
quiet one.  That ratio is the unit ``cal``; README.md has the numbers.

The loop imports nothing from ``repro`` and must never change: every
``cal`` value ever recorded is a multiple of it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

# One calibration is CALIB_SLICES slices of the loop; it reports the median
# slice, scaled up.  A stall that lands in one or two slices (one was seen
# doubling a whole calibration, which dragged two reps' ``cal`` down by a
# quarter) is ignored; a slower regime that lasts moves the median.
CALIB_SLICES = 5
SLICE_ITERATIONS = 400_000

# What one calibration takes on the sizing host in its usual regime.
# ``setup_s`` is reported in seconds *at this speed* (raw set-up seconds
# scaled by CALIB_REF_S / measured calibration), so that a slow host does
# not read as a set-up regression; the raw figure is host.setup_wall_s.
CALIB_REF_S = 0.2


def _slice() -> float:
    t0 = time.perf_counter()
    acc = 0
    d = {}
    cells = [0] * 256
    for i in range(SLICE_ITERATIONS):
        k = i & 255
        acc += (i * i) % 7
        d[k] = acc
        cells[k] = d[k] + 1
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds the fixed interpreter loop (2 000 000 iterations) takes
    right now."""
    return CALIB_SLICES * statistics.median(
        _slice() for _ in range(CALIB_SLICES))


def cpu_seconds() -> float:
    """CPU this process and its waited-for descendants have used."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


class Calibrated:
    """Times calls, each between two calibrations.

    ``rep`` returns the call's result; the raw and calibrated durations
    accumulate in ``wall``, ``cpu`` and ``cal`` (one entry per call), and
    every calibration taken in ``calibs``.
    """

    def __init__(self) -> None:
        self.calibs = [calibrate()]
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.cal: list[float] = []

    def rep(self, fn, *args):
        gc.collect()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        before = self.calibs[-1]
        after = calibrate()
        self.calibs.append(after)
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.cal.append(wall / ((before + after) / 2.0))
        return result

    @property
    def drift(self) -> float:
        """Slowest over fastest calibration of the run; above 1.5 the
        host changed speed mid-run and the run flags itself noisy."""
        return max(self.calibs) / min(self.calibs)
