"""Bus-invert coding (Stan & Burleson, IEEE TVLSI 1995) — reference [5].

Before driving a new word onto the bus, compare its Hamming distance
from the current bus state with ``width / 2``; if larger, drive the
complemented word and assert an extra *invert* line.  Worst-case
transitions per transfer drop to ``width / 2`` (+1 for the invert
line itself, which we count, as the original paper does).
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)


@register_encoder
class BusInvertEncoder(Encoder):
    """Stateful bus-invert coder for a ``width``-bit bus.

    The invert line is packed into bit ``width`` of each driven value,
    so ``EncodedStream.transitions`` counts data-line and invert-line
    toggles together.  The first word is driven plain: there is no
    previous bus state to compare against.
    """

    scheme = "bus-invert"
    deployable = False

    def __init__(self, width: int = 32) -> None:
        self.width = width
        self._mask = (1 << width) - 1

    def encode(self, words: Sequence[int]) -> EncodedStream:
        stream = EncodedStream(self.scheme, self.width + 1)
        if not words:
            return stream
        mask = self._mask
        bus = words[0] & mask
        stream.driven.append(bus)
        for word in words[1:]:
            word &= mask
            inverted = word ^ mask
            # Invert only on a strict improvement (ties drive plain).
            if (inverted ^ bus).bit_count() < (word ^ bus).bit_count():
                bus = inverted
                stream.driven.append((1 << self.width) | inverted)
            else:
                bus = word
                stream.driven.append(word)
        return stream

    def decode(self, stream: EncodedStream) -> list[int]:
        out = []
        for packed in stream.driven:
            driven = packed & self._mask
            invert = (packed >> self.width) & 1
            out.append(driven ^ self._mask if invert else driven)
        return out

    def budget(self) -> HardwareBudget:
        return HardwareBudget(table_bits=0, extra_lines=1, stateful=True)


@register_reference_counter("bus-invert")
def _bus_invert_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Per-transfer cost from the Stan/Burleson rule: a transfer that
    would toggle ``d > width/2`` data lines toggles ``width - d``
    inverted instead, plus one toggle whenever the invert line changes."""
    width = encoder.width
    mask = (1 << width) - 1
    total = 0
    bus = None
    invert_line = 0
    for word in words:
        word &= mask
        if bus is None:
            bus = word
            continue
        distance = bin(word ^ bus).count("1")
        invert = 1 if 2 * distance > width else 0
        total += (width - distance if invert else distance) + (invert ^ invert_line)
        bus = ~word & mask if invert else word
        invert_line = invert
    return total
