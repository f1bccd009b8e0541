"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine, co-tenant load slows every process by up to a third in
phases lasting seconds to minutes, so raw times of one workload spread by
20-25% between runs minutes apart.  The kernel mixes the three kinds of work
the workloads do (interpreted Python, small LAPACK calls, vectorized complex
arithmetic); timing it right before and right after each iteration tells how
much the machine was slowed at the time, and ``calibrated`` rescales a raw
time to seconds at the kernel's reference speed.  A change to bellkit cannot
move the kernel, so a slower bellkit still reads slower.
"""

from __future__ import annotations

import resource
from time import perf_counter

import numpy as np

# The kernel's wall time on an unloaded core of the machine the bounds in
# BENCHMARK.json were set on (2-core x86-64 VM, Python 3.11, numpy 2.4).
REFERENCE_S = 0.28

_rng = np.random.default_rng(0)
_matrix = _rng.normal(size=(48, 48)) + 1j * _rng.normal(size=(48, 48))
_matrix = _matrix + _matrix.conj().T
_phases = 1j * _rng.uniform(0.0, 2 * np.pi, size=1 << 17)
# The kernel writes into this preallocated buffer: a fresh 2 MiB array per call
# would time the allocator's state, which a workload leaves behind, and runs
# 15-25% slower right after set-up than after an iteration.
_buffer = np.empty_like(_phases)


def cpu_seconds() -> float:
    """User plus system CPU time of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _kernel() -> float:
    total = 0
    for i in range(660_000):
        total += (i * i) % 7
    for _ in range(216):
        total += float(np.linalg.eigvalsh(_matrix)[-1])
    for _ in range(33):
        total += float(np.abs(np.exp(_phases, out=_buffer).sum()))
    return total


def measure() -> tuple[float, float]:
    """(wall, cpu) seconds of one run of the kernel."""
    cpu, wall = cpu_seconds(), perf_counter()
    _kernel()
    return perf_counter() - wall, cpu_seconds() - cpu


def calibrated(raw: float, kernel: float) -> float:
    """A raw time rescaled by the kernel time measured alongside it."""
    return raw * REFERENCE_S / kernel
