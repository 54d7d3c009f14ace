"""T0 address-bus encoding (Benini et al., GLS-VLSI 1997) — reference [2].

Instruction addresses are mostly sequential.  T0 adds one redundant
*increment* line: when the new address equals the previous address
plus the fetch stride, the bus is frozen (zero transitions) and the
increment line is asserted; otherwise the raw address is driven.
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
class T0Encoder(Encoder):
    """Stateful T0 coder for an address bus.

    The increment line is packed into bit ``width`` of each driven
    value.  Decoding is a stateful walk: when the increment bit is set
    the receiver regenerates ``previous + stride`` locally, otherwise
    it takes the driven value verbatim.
    """

    scheme = "t0"
    deployable = False

    def __init__(self, width: int = 32, stride: int = 4) -> None:
        self.width = width
        self.stride = stride
        self._mask = (1 << width) - 1

    def encode(self, words: Sequence[int]) -> EncodedStream:
        stream = EncodedStream(self.scheme, self.width + 1)
        if not words:
            return stream
        mask = self._mask
        inc_bit = 1 << self.width
        bus = words[0] & mask
        expected = (bus + self.stride) & mask
        stream.driven.append(bus)
        for address in words[1:]:
            address &= mask
            if address == expected:
                stream.driven.append(inc_bit | bus)  # bus frozen
            else:
                bus = address
                stream.driven.append(address)
            expected = (address + self.stride) & mask
        return stream

    def decode(self, stream: EncodedStream) -> list[int]:
        out: list[int] = []
        for packed in stream.driven:
            if not out:
                out.append(packed & self._mask)
                continue
            inc = (packed >> self.width) & 1
            if inc:
                out.append((out[-1] + self.stride) & self._mask)
            else:
                out.append(packed & self._mask)
        return out

    def to_config(self) -> dict:
        return {"width": self.width, "stride": self.stride}

    @classmethod
    def from_config(cls, config: dict) -> "T0Encoder":
        return cls(
            width=int(config.get("width", 32)), stride=int(config.get("stride", 4))
        )

    def budget(self) -> HardwareBudget:
        return HardwareBudget(table_bits=0, extra_lines=1, stateful=True)


@register_reference_counter("t0")
def _t0_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Per-transfer recount: a sequential successor costs only the
    increment line's toggle; any other address costs the distance from
    the last *driven* address plus the increment line's toggle."""
    mask = (1 << encoder.width) - 1
    stride = getattr(encoder, "stride", 4)
    total = 0
    previous = driven = None
    increment_line = 0
    for address in words:
        address &= mask
        if previous is None:
            previous = driven = address
            continue
        sequential = int(address == ((previous + stride) & mask))
        if not sequential:
            total += bin(address ^ driven).count("1")
            driven = address
        total += sequential ^ increment_line
        increment_line = sequential
        previous = address
    return total
