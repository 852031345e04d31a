"""The tail percentile of the benchmark's latency samples."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def nearest_rank(ordered: Sequence[float], rank: int) -> float:
    """The ``rank``-th smallest value (1-based) of sorted samples."""
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail(values: Iterable[float]) -> Tuple[float, str, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it: ``(value, label, samples beyond)``.

    With ``n`` samples that is the nearest-rank value at rank
    ``n - TAIL_BEYOND``. Below ``10 * TAIL_BEYOND`` samples that rank is
    below p90, no tail, so the maximum is reported instead and labelled
    ``max`` with 0 samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        return ordered[-1], "max", 0
    rank = n - TAIL_BEYOND
    return nearest_rank(ordered, rank), f"p{100.0 * rank / n:.2f}", n - rank
