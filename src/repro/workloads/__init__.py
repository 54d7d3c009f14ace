"""The paper's six benchmarks, written for our MIPS-like ISA.

Section 8: "Matrix multiplication (mmul) ...; successive
over-relaxation (sor) ...; extrapolated Jacobi-iterative method (ej)
...; fast fourier transform (fft) ...; tridiagonal system solver (tri)
...; and lu-decomposition (lu)".

Each module exposes ``build(...)`` returning a :class:`Workload` with
the assembly source, a data-size parameter defaulting to a
simulator-friendly scale (paper-scale sizes are accepted, just slow —
the substitution is documented in DESIGN.md), and a ``verify``
callback that checks the simulated results against an independent
pure-Python reference.
"""

from repro.workloads.common import Workload, read_doubles
from repro.workloads.registry import WORKLOAD_BUILDERS, build_workload

__all__ = [
    "Workload",
    "read_doubles",
    "WORKLOAD_BUILDERS",
    "build_workload",
]
