"""Fixed reference work that shows how fast the machine runs at the moment.

Shared hosts change speed by tens of percent over tens of seconds. The
benchmark's parent process times this probe just before and just after each
repetition's child process (never inside it, so the probe cannot touch the
child's peak memory) and scales the repetition's timings by ``REFERENCE_S``
over the probe's mean time. That reports them in seconds of a machine that
runs the probe in ``REFERENCE_S``. The probe mixes the kinds of work the
workloads do.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median probe time on the machine the benchmark was defined on (2 vCPU
# Intel Xeon, Python 3.11.7, numpy 2.4.6). Only a scale: comparisons of two
# runs on one machine do not depend on it.
REFERENCE_S = 0.16


def probe_seconds() -> float:
    """Seconds for four parts of about equal weight: an interpreter loop,
    many small numpy calls, streaming passes over 32 MB and a strided gather
    over 16 MB, whose misses track contention for the shared cache."""
    small = np.ones((64, 2), dtype=complex)
    gate = np.eye(2, dtype=complex)
    big = np.linspace(0.0, 1.0, 4_000_000)
    buf = np.empty_like(big)
    table = np.linspace(0.0, 1.0, 2_000_000)
    # 7919 is prime and coprime with the table size, so this is a permutation.
    index = np.arange(table.size) * 7919 % table.size
    start = perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    for _ in range(6000):
        small = small @ gate
        float(np.abs(small).sum())
    for _ in range(2):
        np.cumsum(big, out=buf)
        np.divide(buf, big.size, out=big)
    for _ in range(2):
        float(table[index].sum())
    return perf_counter() - start
