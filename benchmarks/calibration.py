"""Machine-speed calibration: a fixed kernel timed between ops.

The machine the benchmark was built on (2 vCPUs on a shared host) changes
speed by 20-80% over periods of seconds to minutes, and process CPU time
moves with wall time, so neither clock alone gives run-to-run figures that
hold within the benchmark's bounds. The runner therefore times this kernel
before every op and after the last one, and reports each op's latency also
at reference speed:

    latency_ref = latency * REF_S / (median kernel time around the op)

The kernel uses none of ``parkbetti``, so a change to the program cannot
move it. It mixes the two kinds of work the program does: a pure-Python
part (tuple keys, dicts, frozensets, a sort; the per-interval overhead of
small ops) and a dense float64 elimination step modulo 32003 on a matrix
larger than L2 (the rank kernel of large ops).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time, over its fast and slow periods, on the
# machine the benchmark was built on (2 vCPUs, Python 3.11.7, numpy with
# scipy-openblas 0.3.31 on one thread). Latencies at reference speed read
# as seconds on that machine at that speed.
REF_S = 0.03
WINDOW = 2  # kernel samples on each side of an op, beyond the two next to it

_PRIME = 32003.0
_MATRIX = np.random.default_rng(0).integers(0, 32003, (450, 450)).astype(np.float64)


def _python_part() -> int:
    counts: dict = {}
    cells = set()
    for i in range(10_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        cells.add(frozenset((i % 31, i % 7)))
    return len(sorted(counts.items())) + len(cells)


def _dense_part() -> float:
    m = _MATRIX.copy()
    m[1:] -= np.outer(m[1:, 0], m[0])
    np.fmod(m, _PRIME, out=m)
    return float(m[-1, -1])


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _python_part()
    _dense_part()
    return time.perf_counter() - start


def local_speed(samples: list[float], i: int) -> float:
    """Kernel time around op ``i``, where ``samples[i]`` was taken just
    before the op and ``samples[i + 1]`` just after it: the median of those
    two and WINDOW more on each side."""
    lo = max(0, i - WINDOW)
    return statistics.median(samples[lo:i + 2 + WINDOW])


def to_ref(latencies: list[float], samples: list[float]) -> list[float]:
    """Latencies scaled to reference speed; ``samples`` has one more entry
    than ``latencies``."""
    return [t * REF_S / local_speed(samples, i) for i, t in enumerate(latencies)]
