"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is shared.  For seconds to minutes at a time it
runs all code up to 2x slower, which moves raw timings between runs by
more than any useful regression bound (README.md, stability record).
So every timed chunk is followed by one run of this loop, and every
set-up spawn is preceded by a few; timings are reported in units of the
loop's time, converted back to seconds with ``NOMINAL_S``: "seconds on
a host running at nominal speed".

The loop mixes interpreted Python (dict and list updates) with small
NumPy kernels (sort, scan, histogram), like the program it calibrates.
It never changes: a change that claims a gain may not edit the benchmark.
"""

from __future__ import annotations

import time

import numpy as np

#: The loop's median time on a quiet 2-core x86 host, in seconds.
NOMINAL_S = 0.02


def reference_seconds() -> float:
    """Run the fixed reference work once; return its wall time."""
    start = time.perf_counter()
    counts: dict = {}
    acc = []
    for i in range(40_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        acc.append(len(acc) % 7)
    rng = np.random.default_rng(1)
    for _ in range(8):
        a = rng.random(50_000)
        np.argsort(a)
        np.cumsum(a)
        np.bincount(rng.integers(0, 1000, 50_000), minlength=1000)
    return time.perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference loop took ``reference``,
    as seconds at nominal host speed."""
    return seconds / reference * NOMINAL_S
