"""Machine-speed calibration for the reported times.

The reference machine (2 cores shared with other tenants, CPython 3.11)
drifts in speed by up to 25% between 15 to 30 second windows, and the
drift moves every op of a run together.  Wall-clock medians of
otherwise identical runs then differ by 15 to 25%, more than any
bound that could still catch a regression.  A fixed pure-Python loop
run right before and right after each op slows down with the op
(correlation 0.78 over 150 s), so each op's wall time is scaled by
``REFERENCE_S / calibration``: the time the op would have taken at the
reference machine's quiet speed.  Over the same 150 s, the run-to-run
spread of the median fell from 15% (raw) to 2% (scaled).

The loop is the benchmark's own code and never calls ``repro``, so no
change to the package under test can move it.  Raw wall times are
printed beside the scaled ones.
"""

from __future__ import annotations

from perfbench.spans import now

#: median :func:`calibration_s` on the reference machine when quiet
REFERENCE_S = 0.0112
_LOOPS = 100_000


def calibration_s() -> float:
    """Seconds one fixed loop of integer arithmetic and dict stores takes."""
    start = now()
    total = 0
    table = {}
    for i in range(_LOOPS):
        total += i * i
        table[i & 1023] = total
    return now() - start


def scaled(wall_s: float, calibration: float) -> float:
    """``wall_s`` at the reference machine's speed."""
    return wall_s * REFERENCE_S / calibration
