"""Machine-speed probe used to normalize benchmark timings.

On a shared virtual machine the same fixed work can take up to twice as
long from one ten-second window to the next, and process CPU time rises
with wall time, so neither removes the swing. The harness therefore runs
this probe, a fixed mix of small LAPACK calls and interpreted Python,
between timed intervals. Each interval is scaled by REFERENCE_S / (mean
time of the probes run just before and just after it). A reported time is thus
the time the interval would take on a machine where the probe takes
REFERENCE_S. The probe never calls the library, so a change to the
library moves the scaled time as it moves the raw time. All benchmark
processes are pinned to one CPU, so the probe and the measured work run
on the same virtual CPU.
"""

import bisect
import statistics
import time

import numpy as np

# Bound before any tracer patches numpy.linalg.
_eigh = np.linalg.eigh
_svd = np.linalg.svd
_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(48, 48))
_A = _A + _A.T
_B = _rng.normal(size=(32, 32))

# Probe time on the reference machine (2-core VM, Python 3.11, NumPy 2.4,
# OpenBLAS 0.3.31, one BLAS thread) in its faster phases.
REFERENCE_S = 2.8e-3


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    t0 = time.perf_counter()
    for _ in range(4):
        _eigh(_A)
        _svd(_B)
        acc = 0
        for k in range(800):
            acc += k * k
    return time.perf_counter() - t0


def scale(probe_times) -> float:
    """Factor that converts a time measured among these probes to
    reference-machine time."""
    return REFERENCE_S / statistics.median(probe_times)


def scaled(intervals, probes) -> list:
    """Reference-speed durations of (start, end) intervals, each scaled by
    the last probe before it and the first probe after it. ``probes`` is
    a time-ordered list of (midpoint, seconds) that brackets every
    interval. Wider windows were tried and tracked the swings worse."""
    times = [t for t, _ in probes]
    out = []
    for start, end in intervals:
        before = probes[bisect.bisect_left(times, start) - 1][1]
        after = probes[bisect.bisect_right(times, end)][1]
        out.append((end - start) * scale([before, after]))
    return out


def timed_probe() -> tuple:
    """(midpoint, seconds) of one probe."""
    t0 = time.perf_counter()
    d = probe()
    return (t0 + d / 2, d)
