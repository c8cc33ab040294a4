"""Host-speed reference: a fixed piece of CPU work timed next to the
measured work, so that timings can be put on one scale of host speed.

The benchmark runs on shared hosts whose per-core speed changes by up to
1.7x, within seconds and for minutes at a time, through load from other
tenants on the same physical cores (the guest's steal counter stays at
zero).  The cores of one guest are not equally slowed either.  No choice of
run length or estimator removes a slowdown that covers a whole run, so the
benchmark pins itself to one core (``pin_to_one_core``) and times this
kernel on that core between the calls it measures.  A time ``t`` whose
nearby kernel times average ``r`` is reported as ``t * REFERENCE_S / r``:
seconds at the host speed at which the kernel takes ``REFERENCE_S``, which
is about the speed of an idle core of the host the baseline was recorded
on.  On such a core the figure is the plain measured time.

The kernel mixes the kinds of work the program does: small LAPACK
eigendecompositions, Python bytecode and dict and str operations.  It does
not import the program, so no change to the program moves it.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

# Time of reference_seconds() on an idle core of the 2-vCPU Xeon VM the
# baseline in BENCH_0.json was recorded on.
REFERENCE_S = 0.008

# Kernel times averaged on each side of a measured interval.
WINDOW = 5

_K = 30


@functools.cache
def _kernel_inputs():
    """numpy's eigh, bound once so that the traced run's wrapper of
    numpy.linalg.eigh never counts the kernel's calls, and a fixed SPD
    matrix."""
    import numpy as np

    a = np.arange(_K * _K, dtype=float).reshape(_K, _K) % 7.0 - 3.0
    return np.linalg.eigh, a @ a.T + _K * np.eye(_K)


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    eigh, matrix = _kernel_inputs()
    t0 = time.perf_counter()
    for _ in range(100):
        eigh(matrix)
    x = 0
    for i in range(30000):
        x += i * i
    table = {}
    for i in range(5000):
        table[i] = str(i)
    return time.perf_counter() - t0


def pin_to_one_core() -> int:
    """Bind this process, and the children it starts later, to the last
    core it may run on, so the kernel and the measured work share a core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def scaled(per_pass: list[list[float]], refs: list[list[float]]) -> list[list[float]]:
    """The times of ``per_pass`` (one list of call times per pass) at the
    host speed where the kernel takes REFERENCE_S.  ``refs[p]`` holds the
    kernel times around the calls of pass ``p``, one more than there are
    calls.  A single kernel time is a 10 ms sample and noisy, so each call
    time is scaled by the mean of the WINDOW kernel times before it and the
    WINDOW after it, across pass boundaries."""
    flat = [r for rs in refs for r in rs]
    out, start = [], 0
    for times, rs in zip(per_pass, refs):
        out.append([
            t * REFERENCE_S / statistics.fmean(flat[max(0, start + i + 1 - WINDOW):start + i + 1 + WINDOW])
            for i, t in enumerate(times)
        ])
        start += len(rs)
    return out
