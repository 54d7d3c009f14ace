"""Instruction-bus transition and energy model.

Power on a bus line is proportional to its toggle count times the line
capacitance (the paper's premise, after [1]).  This module counts bit
transitions over a fetch trace for an arbitrary memory image — the
baseline image or the power-encoded one — with CPython big ints: the
fetched words are packed into one integer, 32 bits per fetch, so a
single XOR against itself shifted one word and one ``bit_count`` count
every toggle of the trace in C.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.isa.assembler import Program


def address_map(text_base: int, words: Sequence[int]) -> dict[int, int]:
    """``{address: word}`` for a word image laid out from ``text_base``;
    its ``__getitem__`` is a C-level fetch that rejects addresses
    outside the image or off a word boundary."""
    return dict(zip(range(text_base, text_base + 4 * len(words), 4), words))


def _trace_toggles(
    program: Program,
    addresses: Sequence[int],
    image: Sequence[int] | None = None,
) -> tuple[int, int]:
    """Toggle vector of a fetch trace and its number of bus cycles.

    Word ``t`` of the result (bits ``[32t, 32t+32)``) is the XOR of the
    ``t``-th and ``t+1``-th fetched words.  ``image`` overrides the
    program's stored words (same layout); use it for the power-encoded
    memory image.  An address outside the text, or not word-aligned,
    raises :class:`ValueError`.
    """
    stored = address_map(
        program.text_base, program.words if image is None else image
    )
    try:
        # "I" is 32 bits on every platform CPython supports.
        fetched = array("I", map(stored.__getitem__, addresses))
    except KeyError as exc:
        raise ValueError(
            f"trace address {exc.args[0]!r} is not a word of the text image"
        ) from None
    cycles = len(fetched) - 1
    if cycles < 1:
        return 0, 0
    x = int.from_bytes(fetched.tobytes(), sys.byteorder)
    return (x ^ (x >> 32)) & ((1 << (32 * cycles)) - 1), cycles


def count_trace_transitions(
    program: Program,
    addresses: Sequence[int],
    image: Sequence[int] | None = None,
) -> int:
    """Total bit transitions on the instruction bus over a trace."""
    total = _trace_toggles(program, addresses, image)[0].bit_count()
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
    toggles, cycles = _trace_toggles(program, addresses, image)
    # One set bit per bus cycle, at line 0 of its 32-bit lane.
    line0 = int.from_bytes(b"\x01\x00\x00\x00" * cycles, "little")
    return [(toggles & (line0 << line)).bit_count() for line in range(width)]


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
