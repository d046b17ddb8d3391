"""Summary statistics and span arithmetic shared by the benchmark's scripts."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """Median of a nonempty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as statistics.quantiles(values, n=4) gives them.

    A single sample is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def host_slowdown(probe: Sequence[float], reference: float) -> float:
    """How much slower than the reference the host ran while `probe` was timed.

    `probe` holds the times of one fixed chunk of work, sampled while a job
    ran (or right after set-up); `reference` is that chunk's time on an
    unhindered host.  The mean, not the median, because a job's time
    integrates every burst of slowdown.
    """
    if not probe or reference <= 0.0:
        raise ValueError("host_slowdown needs probe times and a positive reference")
    return statistics.fmean(probe) / reference


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> list[float]:
    """Self time of every span: its duration minus the durations of its children.

    Spans are given as parallel sequences; parent[i] is the index of the span
    that was open when span i started, or -1 for a root.  Children of one span
    never overlap (one thread), so subtracting their durations removes exactly
    the part of the parent's interval they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
