"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: ``op_tail_s`` is read at the highest percentile that still has this
#: many ops beyond it, so it never rests on one or two outliers.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # share of ops at or below ``value``, in %
    ops: int
    beyond: int


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The largest value with at least ``beyond`` values above it.

    With ``n`` sorted values that is the one at rank ``n - beyond``
    (1-based), i.e. the ``(n - beyond) / n`` percentile.  Fewer than
    ``beyond + 1`` values have no such rank and raise ``ValueError``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(
            f"need more than {beyond} values for a tail, got {n}"
        )
    rank = n - beyond
    ordered = sorted(values)
    return Tail(
        value=ordered[rank - 1],
        percentile=100.0 * rank / n,
        ops=n,
        beyond=beyond,
    )
