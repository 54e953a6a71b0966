"""Order statistics for the benchmark: nearest-rank percentiles and spreads."""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, one outlier decides the number.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n / 100.0))


def reportable(n: int, q: float) -> bool:
    """Whether a ``q``-th percentile over ``n`` samples may be reported."""
    return samples_beyond(n, q) >= MIN_BEYOND


def checked_percentile(values: list[float], q: float) -> float:
    """:func:`percentile`, refusing ranks with too few samples beyond."""
    if not reportable(len(values), q):
        raise ValueError(
            f"p{q:g} over {len(values)} samples has only "
            f"{samples_beyond(len(values), q)} beyond it (< {MIN_BEYOND})")
    return percentile(values, q)


def median(values: list[float]) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
