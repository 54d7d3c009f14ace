"""Fetch-trace capture and summarisation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.isa.assembler import Program


@dataclass
class FetchTrace:
    """A recorded instruction fetch stream.

    Wraps the raw PC list with the bookkeeping the profiler and the
    bus model need: per-address fetch counts and adjacency pairs.
    """

    program: Program
    addresses: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.addresses)

    def fetch_counts(self) -> Counter:
        """Times each text address was fetched."""
        return Counter(self.addresses)

    def words(self) -> list[int]:
        """The instruction words as seen on the bus, in fetch order."""
        base = self.program.text_base
        words = self.program.words
        return [words[(a - base) >> 2] for a in self.addresses]

    def edge_counts(self) -> Counter:
        """Counts of consecutive (from, to) fetch address pairs."""
        pairs = zip(self.addresses, self.addresses[1:])
        return Counter(pairs)

    def coverage(self) -> float:
        """Fraction of static instructions fetched at least once."""
        if not self.program.words:
            return 0.0
        return len(set(self.addresses)) / len(self.program.words)

    @classmethod
    def record(cls, program: Program, max_steps: int = 100_000_000) -> "FetchTrace":
        """Run the program and capture its fetch trace."""
        from repro.sim.cpu import run_program

        cpu, addresses = run_program(program, max_steps=max_steps)
        trace = cls(program=program, addresses=addresses)
        trace.cpu = cpu  # type: ignore[attr-defined] - handy for tests
        return trace


def window(addresses: Sequence[int], start: int, length: int) -> Iterable[int]:
    """A slice helper for inspecting trace regions in examples."""
    return addresses[start : start + length]
