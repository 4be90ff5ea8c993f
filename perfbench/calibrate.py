"""Machine-speed calibration of pass timings.

The benchmark's host is shared, and over minutes its speed drifts by a
quarter or more, which moves every wall time with it. Each pass's worker
times this fixed kernel, which runs no spatialcpf code, right after its
pass, in the same process and so most likely on the same CPU. The benchmark
reports the run's median pass time scaled by a power of REFERENCE_S over
the median kernel time (see scaled): the time a pass would have taken at the
reference speed. A change to spatialcpf moves the pass time but not the
kernel's.

A pass slows less than the kernel when the host slows: in three sets of runs
the slope of log pass time on log kernel time was 0.5 to 0.7, and scaling by
the full ratio over-corrected. The ratio is raised to SENSITIVITY, 0.5.

The kernel mixes the two kinds of work a pass does: Python-level parsing of
text rows, as in ingest, and numpy array work, as in the kNN and
big-brother distance steps.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time, in seconds, at the reference speed (a typical reading on a
# 2-vCPU Intel Xeon VM). Scaled times are in seconds at that speed.
REFERENCE_S = 0.037
SENSITIVITY = 0.5
REPEATS = 5

_ROWS = "\n".join(",".join(f"{(i * 37 + j * 11) % 1000 / 7:.6f}" for j in range(16))
                  for i in range(6000))
_POINTS = np.random.default_rng(0).random((450, 15))


def _parse_s() -> float:
    start = time.perf_counter()
    total = 0.0
    for line in _ROWS.splitlines():
        total += sum([float(cell) for cell in line.split(",")])
    elapsed = time.perf_counter() - start
    assert total > 0
    return elapsed


def _arrays_s() -> float:
    """Squared distances between all point pairs, in blocks of rows so that
    the temporary arrays stay small."""
    start = time.perf_counter()
    for lo in range(0, len(_POINTS), 50):
        sq = ((_POINTS[lo:lo + 50, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=-1)
        np.sort(sq, axis=1)
    return time.perf_counter() - start


def kernel_s() -> float:
    """Seconds the kernel takes now: each part's median over REPEATS runs,
    after one untimed run of each, summed."""
    _parse_s()
    _arrays_s()
    return (statistics.median(_parse_s() for _ in range(REPEATS))
            + statistics.median(_arrays_s() for _ in range(REPEATS)))


def scaled(wall_s: float, kernel_s: float) -> float:
    """A wall time at the reference speed, given the kernel's time on the
    host at the time."""
    return wall_s * (REFERENCE_S / kernel_s) ** SENSITIVITY
