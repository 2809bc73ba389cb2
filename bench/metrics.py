"""End-to-end metric arithmetic shared by the runner and the report.

Host-speed calibration: the machines this benchmark runs on are shared,
and their effective speed swings by tens of percent within seconds (CPU
time swings with wall time, so this is not waiting). The timed loop
therefore samples the time c of a fixed pure-Python kernel (no stalab
code) every CAL_EVERY_S between items, and scales each item time by
CAL_REF_S / c, with c the mean of the samples just before and just after
the item. Reported times are "reference seconds": seconds on a host that
runs the kernel in CAL_REF_S, which was its median time on a 2-core Intel
Xeon virtual machine (Python 3.11.7) when the benchmark was written.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

CAL_REF_S = 0.0025     # kernel time on the reference host
CAL_EVERY_S = 0.2      # loop time between calibration samples
CAL_RUNS = 5           # kernel runs per calibration sample


def calibration_kernel():
    """Interpreter, big-integer and float work, like stalab's own mix."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, 7 * i + 3)
    x = 0.0
    for i in range(15000):
        x += math.sin(i * 1e-3)
    return acc, x


def calibrate(runs: int = CAL_RUNS) -> float:
    """One host-speed sample: median time of `runs` kernel runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds: float, cal_before: float, cal_after: float) -> float:
    """A host interval in reference seconds, given the calibration samples
    taken just before and just after it."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2.0)


TAIL_BEYOND = 10    # samples that must lie beyond the tail percentile


def tail_latency(times) -> tuple[float, float, int]:
    """Item time at the highest percentile with at least ten samples beyond
    it: (value, percentile, samples beyond). The value is the eleventh
    largest time; with fewer than eleven samples no percentile qualifies
    and the maximum is returned with the count that lies beyond it (0)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles with n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
