"""Pure helpers: percentiles, span self time, latency, roofline fields."""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: Samples a reported percentile must leave beyond it.
TAIL_SAMPLES = 10


def tail_percentile(n: int, wanted: float = 95.0) -> float:
    """Highest percentile <= ``wanted`` that leaves >= 10 samples beyond.

    With ``n`` samples, percentile ``q`` (nearest rank) has
    ``n - ceil(q/100 * n)`` samples above it; at least
    :data:`TAIL_SAMPLES` of them are required.  Returns 0.0 when even
    the median would leave fewer than that.
    """
    if n <= 0:
        raise ValueError("no samples")
    q = 100.0 * (n - TAIL_SAMPLES) / n
    return max(0.0, min(wanted, math.floor(q * 10) / 10))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[min(rank, len(xs)) - 1]


def tail(values: Sequence[float], wanted: float = 95.0) -> Tuple[float, float]:
    """``(q, value)``: the tail percentile the sample count supports."""
    q = tail_percentile(len(values), wanted)
    return q, percentile(values, q)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(t0, t1)`` pairs."""
    total = 0.0
    end = -math.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


Windows = Sequence[Tuple[float, float]]


def _inside(t: float, windows: Windows) -> bool:
    """Is ``t`` in one of the sorted, disjoint ``[lo, hi)`` windows?"""
    i = bisect.bisect_right(windows, (t, math.inf)) - 1
    return i >= 0 and windows[i][0] <= t < windows[i][1]


def self_times(spans: Sequence[list], windows: Windows = None
               ) -> Dict[str, float]:
    """Per-name self time: duration minus the union of child spans.

    ``spans`` are ``[name, t0, t1, parent_index, ...]`` records of one
    thread (see :mod:`tracer`).  With ``windows`` (sorted, disjoint
    ``(lo, hi)`` pairs), only spans starting inside one of them count.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append((sp[1], sp[2]))
    out: Dict[str, float] = {}
    for i, sp in enumerate(spans):
        name, t0, t1 = sp[0], sp[1], sp[2]
        if windows is not None and not _inside(t0, windows):
            continue
        dur = t1 - t0 - union_length(children.get(i, ()))
        out[name] = out.get(name, 0.0) + dur
    return out


def span_counts(spans: Sequence[list], windows: Windows = None
                ) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for sp in spans:
        if windows is None or _inside(sp[1], windows):
            out[sp[0]] = out.get(sp[0], 0) + 1
    return out


def durations(spans: Sequence[list], name: str) -> List[float]:
    return [sp[2] - sp[1] for sp in spans if sp[0] == name]


def due_latencies(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Open-loop latency: completion minus the time the job was *due*.

    Measuring from the due time (not the actual submit) charges a
    generator stall to every job it delayed.
    """
    if len(due) != len(done):
        raise ValueError("due/done length mismatch")
    return [d1 - d0 for d0, d1 in zip(due, done)]


def roofline(flops: float, nbytes: float, seconds: float,
             bandwidth: float) -> Dict[str, float]:
    """Computed-rate fields of one kernel.

    ``flops`` and ``nbytes`` come from the program's own operation and
    traffic formulas (computed, not counted by hardware); ``bandwidth``
    is a bytes/s probe measured in the same run.
    """
    if seconds <= 0 or bandwidth <= 0:
        raise ValueError("seconds and bandwidth must be positive")
    return {
        "gflops": flops / seconds / 1e9,
        "bw_frac": nbytes / seconds / bandwidth,
    }
