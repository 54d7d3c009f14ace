"""Instruction-bus transition and energy model.

Power on a bus line is proportional to its toggle count times the line
capacitance (the paper's premise, after [1]).  This module counts bit
transitions over a fetch trace for an arbitrary memory image — the
baseline image or the power-encoded one.

The count depends on the trace only through how often each address is
followed by each other address, and loop-dominated traces revisit a
few dozen such pairs tens of thousands of times.  So a trace is first
reduced to a :class:`TraceHistogram` — ``{(address, next address):
count}`` plus its first and last address — and every count is a sum
over the distinct pairs: ``n * popcount(word[a] ^ word[b])``.  The
last histogram built is kept in a one-slot memo keyed by the trace's
content, so profiling the trace, counting the baseline image and
counting the encoded image (at every block size of a suite) build it
once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Mapping, NamedTuple, Sequence

from repro.isa.assembler import Program


def address_map(text_base: int, words: Sequence[int]) -> dict[int, int]:
    """``{address: word}`` for a word image laid out from ``text_base``;
    its ``__getitem__`` is a C-level fetch that rejects addresses
    outside the image or off a word boundary."""
    return dict(zip(range(text_base, text_base + 4 * len(words), 4), words))


class TraceHistogram(NamedTuple):
    """A fetch trace reduced to what the bus counts depend on.

    ``pairs`` maps ``(address, next address)`` to how often that step
    occurs, in order of first occurrence; ``first``/``last`` are the
    trace's end addresses (``None`` for an empty trace).  Shared
    through the memo of :func:`trace_histogram`: treat as read-only.
    """

    pairs: dict[tuple[int, int], int]
    first: int | None
    last: int | None

    def fetch_counts(self) -> Counter:
        """How often each address is fetched, in order of first fetch."""
        counts: Counter = Counter()
        for (address, _), n in self.pairs.items():
            counts[address] += n
        if self.last is not None:
            counts[self.last] += 1
        return counts


#: One-slot memo: ``(tuple copy of the trace, its histogram)``, stored
#: and read as one object so a reader never pairs a key with another
#: trace's value.
_LAST_HISTOGRAM: tuple[tuple[int, ...], TraceHistogram] | None = None


def trace_histogram(addresses: Sequence[int]) -> TraceHistogram:
    """The :class:`TraceHistogram` of a fetch trace; a trace equal in
    content to the previous call's reuses its histogram."""
    global _LAST_HISTOGRAM
    key = tuple(addresses)
    memo = _LAST_HISTOGRAM
    if memo is not None and memo[0] == key:
        histogram = memo[1]
        outcome = "reused"
    else:
        histogram = TraceHistogram(
            Counter(zip(key, islice(key, 1, None))),
            key[0] if key else None,
            key[-1] if key else None,
        )
        _LAST_HISTOGRAM = (key, histogram)
        outcome = "built"
    from repro.obs import OBS

    if OBS.enabled:
        OBS.registry.counter(
            "bus.trace_histograms",
            "fetch-trace pair histograms built or reused from the memo",
            outcome=outcome,
        ).inc()
    return histogram


def _pair_toggles(
    program: Program,
    addresses: Sequence[int],
    image: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """``(toggled lines, occurrences)`` per distinct consecutive fetch
    pair of a trace.

    ``image`` overrides the program's stored words (same layout); use
    it for the power-encoded memory image.  Every fetched address is
    looked up, so one outside the text, or not word-aligned, raises
    :class:`ValueError`.
    """
    histogram = trace_histogram(addresses)
    stored = address_map(
        program.text_base, program.words if image is None else image
    )
    try:
        word = {a: stored[a] for a in histogram.fetch_counts()}
    except KeyError as exc:
        raise ValueError(
            f"trace address {exc.args[0]!r} is not a word of the text image"
        ) from None
    return [(word[a] ^ word[b], n) for (a, b), n in histogram.pairs.items()]


def count_trace_transitions(
    program: Program,
    addresses: Sequence[int],
    image: Sequence[int] | None = None,
) -> int:
    """Total bit transitions on the instruction bus over a trace."""
    total = sum(
        n * toggles.bit_count()
        for toggles, n in _pair_toggles(program, addresses, image)
    )
    from repro.obs import OBS

    if OBS.enabled:
        which = "baseline" if image is None else "patched"
        OBS.registry.counter(
            "bus.measurements", "transition-count evaluations", image=which
        ).inc()
        OBS.registry.counter(
            "bus.transitions_measured",
            "bit transitions counted across all measurements",
            image=which,
        ).inc(total)
    return total


def per_line_trace_transitions(
    program: Program,
    addresses: Sequence[int],
    image: Sequence[int] | None = None,
    width: int = 32,
) -> list[int]:
    """Per-bus-line transition counts over a trace (lines ``0 ..
    width-1`` of the 32-bit bus)."""
    if not 0 <= width <= 32:
        raise ValueError(f"bus width {width} is not in 0..32")
    pairs = _pair_toggles(program, addresses, image)
    return [
        sum(n for toggles, n in pairs if toggles >> line & 1)
        for line in range(width)
    ]


@dataclass(frozen=True)
class BusModel:
    """A simple energy model: ``E = C_line * V^2 * toggles`` per line.

    Defaults model an on-chip bus; pass a larger ``line_capacitance``
    (tens of pF) for the off-chip / external-flash case the paper
    highlights as even more transition-sensitive.
    """

    line_capacitance: float = 0.5e-12  # farads, per line
    supply_voltage: float = 1.8  # volts
    width: int = 32

    def energy_joules(self, transitions: int) -> float:
        """Dynamic energy for a transition count (0.5 C V^2 per toggle)."""
        return 0.5 * self.line_capacitance * self.supply_voltage**2 * transitions

    def trace_energy(
        self,
        program: Program,
        addresses: Sequence[int],
        image: Sequence[int] | None = None,
    ) -> float:
        return self.energy_joules(
            count_trace_transitions(program, addresses, image)
        )

    def savings_percent(
        self, baseline_transitions: int, encoded_transitions: int
    ) -> float:
        if baseline_transitions == 0:
            return 0.0
        return (
            100.0
            * (baseline_transitions - encoded_transitions)
            / baseline_transitions
        )


def image_with_patches(
    program: Program, patches: Mapping[int, int]
) -> list[int]:
    """The program's word image with ``{address: word}`` overrides —
    how the encoded program memory is materialised."""
    image = list(program.words)
    base = program.text_base
    for address, word in patches.items():
        offset = address - base
        if offset < 0 or offset % 4 or offset // 4 >= len(image):
            raise ValueError(f"patch address {address:#010x} not in text")
        image[offset // 4] = word & 0xFFFFFFFF
    return image
