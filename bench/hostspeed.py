"""Host-speed calibration: a fixed reference computation timed between requests.

The benchmark's host is shared, and its speed drifts by a factor of up to
two, in bursts lasting seconds. Two kinds of drift mix:

- the process is not running (the hypervisor runs another guest, or another
  process holds the core); wall time grows, process CPU time does not;
- the process runs, but each instruction takes longer (a busy sibling core,
  shared caches and memory); wall time and CPU time grow alike.

A request's process CPU time removes the first kind. :func:`measure` times
the CPU seconds of one pass of :func:`kernel`, a fixed computation that uses
numpy and scipy only and so does not change when freeferm does; their ratio
removes the second. The kernel mixes the kinds of work the workloads do:
interpreter-bound small numpy calls, LAPACK decompositions and BLAS products
on small dense matrices, and vector operations on a 2^12-entry array.

:func:`normalize` divides each request's CPU time by the mean CPU time of the
kernel passes measured right before and right after it, and multiplies by
:data:`REF_S`. The result is in reference seconds (``ref_s``): the time the
request would take on a quiet host where one kernel pass takes ``REF_S``
seconds. A program change that halves a request's CPU time halves its
``ref_s`` too.

The benchmark process runs one thread (BLAS is pinned to one), so its CPU
time is the request's busy time. A program change that spreads work over
more threads or processes would not show as a gain here.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np
import scipy.linalg

#: seconds one kernel pass took on the quiet 2-core host where the benchmark
#: was written (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread), so
#: that ref_s reads close to seconds there
REF_S = 0.008

_rng = np.random.default_rng(20240926)
_SMALL = _rng.normal(size=(16, 16))
_MID = _rng.normal(size=(96, 96))
_SKEW = np.triu(_rng.normal(size=(64, 64)), 1)
_SKEW = _SKEW - _SKEW.T
_VEC = _rng.normal(size=4096)


def kernel() -> float:
    """One pass of the reference computation; returns a checksum."""
    acc = 0.0
    for i in range(480):  # interpreter-bound: many small numpy calls
        acc += float(np.trace(_SMALL @ _SMALL[:, (i % 16,) * 16]))
    acc += float(np.linalg.eigvalsh(_MID + _MID.T)[-1])
    acc += float(np.abs(scipy.linalg.schur(_SKEW, output="real")[0]).max())
    acc += float(np.linalg.det(_MID @ _MID.T / 96.0))
    for _ in range(32):  # vector work on 2^12 entries
        acc += float(np.cumsum(np.abs(_VEC) * 1e-3)[-1])
        acc += float(np.sort(_VEC)[2048])
    return acc


def measure() -> Tuple[float, float]:
    """(wall-clock midpoint, CPU seconds) of one kernel pass; the midpoint is on
    the perf_counter clock."""
    start = time.perf_counter()
    cpu = time.process_time()
    kernel()
    cpu = time.process_time() - cpu
    return 0.5 * (start + time.perf_counter()), cpu


def pass_cpu_s() -> float:
    """Median CPU seconds of three kernel passes, after one untimed pass that
    finishes scipy's lazy set-up."""
    kernel()
    return statistics.median(measure()[1] for _ in range(3))


def normalize(spans: Sequence[Tuple[float, float, float]],
              calibrations: Sequence[Tuple[float, float]]) -> List[float]:
    """Each request's CPU time in reference seconds; a request is given as
    (wall-clock start, wall latency, CPU seconds).

    A request's host speed is the mean of the kernel passes timed right before
    and right after it; the caller times one pass before the first request
    and one after each. Wider windows tracked bursts of host load worse: with
    the median of the passes within 0.5 s of each request, the tail latency
    spread nearly twice as much between runs on a loaded host.
    """
    calibrations = sorted(calibrations)
    mids = [m for m, _ in calibrations]
    out = []
    for start, _, cpu in spans:
        i = bisect.bisect_left(mids, start)
        if not 0 < i < len(mids):
            raise ValueError(f"no kernel pass on both sides of the request at {start}")
        kernel_s = 0.5 * (calibrations[i - 1][1] + calibrations[i][1])
        out.append(cpu * REF_S / kernel_s)
    return out
