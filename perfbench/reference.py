"""Fixed reference kernel: the unit of the gated relative op cost.

The host this benchmark runs on is shared, and other tenants change
its speed by up to 2x over seconds to minutes, with no CPU steal to
show for it.  A fixed piece of Python and small-array numpy work, run
on the same thread between the measured ops, slows down with them, so
op time over reference time keeps the program's own cost and drops
most of the host's.  The kernel has two parts, because the slowdown
depends on how much an op leans on the shared caches: interpreter and
small-array work (like a Sod step), and gathers and batched products
over a few MiB (like a cmtbone step).  It is the benchmark's own code:
no change to the program can move it.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

_RNG = np.random.default_rng(0)
_D = _RNG.random((6, 6))
_U = _RNG.random((16, 6, 6, 6))
_V = _RNG.random(4096) + 1.0
_SRC = _RNG.random(1 << 19)
_IDX = _RNG.integers(0, 1 << 19, 1 << 16)
_D8 = _RNG.random((8, 8))
_B = _RNG.random((64, 8, 8, 8))
#: Repetitions of each part per sample (about 2 + 5 ms of CPU).
SMALL_REPS = 100
MEMORY_REPS = 10
#: Op CPU time between two reference samples.
INTERVAL_S = 0.2


def sample() -> float:
    """Thread CPU seconds of one run of the fixed kernel."""
    c0 = time.thread_time()
    for _ in range(SMALL_REPS):
        w = np.matmul(_D, _U)
        w += _U
        np.sqrt(_V).sum()
    for _ in range(MEMORY_REPS):
        np.take(_SRC, _IDX).sum()
        np.matmul(_D8, _B).sum()
    return time.thread_time() - c0


class Interleaver:
    """Takes a reference sample after every ``INTERVAL_S`` of op CPU."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._since = 0.0

    def after_op(self, op_cpu_s: float) -> None:
        self._since += op_cpu_s
        if self._since >= INTERVAL_S:
            self._since = 0.0
            self.samples.append(sample())
