"""Percentiles and the tail rule the benchmark reports timings with."""

from __future__ import annotations

import math

#: Tail levels tried from the highest down.
TAIL_LEVELS = (99.0, 90.0, 50.0)

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer and the "tail" is one or two unlucky samples.
MIN_BEYOND = 10


def percentile(samples, level: float) -> float:
    """Nearest-rank percentile of ``samples`` (any order, non-empty)."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), level)]


def _rank(n: int, level: float) -> int:
    return min(n - 1, max(0, math.ceil(level / 100.0 * n) - 1))


def beyond(n: int, level: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - 1 - _rank(n, level)


def tail_level(n: int) -> "float | None":
    """The highest of :data:`TAIL_LEVELS` with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` if none has."""
    for level in TAIL_LEVELS:
        if beyond(n, level) >= MIN_BEYOND:
            return level
    return None


def summarize(samples) -> dict:
    """Median, p90, tail (by the rule above) and sample count.

    When too few samples support any tail level the tail falls back to
    the median and ``tail_level`` reads ``None``, so a reader sees that
    the tail is unsupported rather than a max dressed up as a p99.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    level = tail_level(n)
    median = ordered[_rank(n, 50.0)]
    tail = ordered[_rank(n, level)] if level is not None else median
    return {"n": n, "p50": median, "p90": ordered[_rank(n, 90.0)],
            "tail": tail, "tail_level": level}
