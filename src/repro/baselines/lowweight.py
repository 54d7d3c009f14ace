"""Limited-weight code bus encoding with transition signalling.

After Valentini & Chiani, *Practical Low-Weight Codes for
Energy-Efficient Bus Encoding* (arXiv:2606.14203): map each k-bit
information chunk onto an n-bit codeword of Hamming weight at most m
(an "m-out-of-n-or-less" code), then apply transition signalling —
the bus drives the XOR of the previous driven value and the codeword,
so the number of toggles per transfer *is* the codeword weight.  With
k=4, n=5, m=2 there are exactly C(5,0)+C(5,1)+C(5,2) = 16 codewords,
enough for every chunk value, bounding a 32-bit word (8 chunks, 40
driven lines) at 16 toggles per transfer where the raw bus allows 32.

We encode the *difference* ``d_t = w_t ^ w_{t-1}`` rather than the
word itself, so an unchanged word costs zero toggles, and ``fit``
ranks each chunk position's difference values by dynamic frequency so
the most frequent difference gets the weight-0 codeword — the
application-specific half of the scheme.  The decoder XORs consecutive
driven values to recover the codeword, inverts the per-position table,
and XOR-accumulates the differences; it needs the previous transfer,
so the scheme is a bus codec, not an image-deployable recoder.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import xor
from typing import Dict, List, Sequence

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)
from repro.errors import EncodingError

CHUNK_WIDTH = 4
CODE_WIDTH = 5
MAX_CODEWORD_WEIGHT = 2

#: the 16 codewords of weight <= 2 over 5 lines, in (weight, value)
#: order so rank r gets the r-th cheapest codeword.  The verify
#: campaign's mutation self-test corrupts this table.
CODEWORDS: List[int] = sorted(
    (c for c in range(1 << CODE_WIDTH) if c.bit_count() <= MAX_CODEWORD_WEIGHT),
    key=lambda c: (c.bit_count(), c),
)


@register_encoder
class LowWeightCodeEncoder(Encoder):
    """m-out-of-n limited-weight codewords + transition signalling."""

    scheme = "low-weight"
    deployable = False

    def __init__(self, width: int = 32) -> None:
        if width % CHUNK_WIDTH != 0:
            raise EncodingError(
                f"width {width} is not a multiple of chunk width {CHUNK_WIDTH}"
            )
        self.width = width
        self._mask = (1 << width) - 1
        self.num_chunks = width // CHUNK_WIDTH
        self.code_width = CODE_WIDTH
        size = 1 << CHUNK_WIDTH
        if len(set(CODEWORDS)) < size:
            raise EncodingError("low-weight codeword table is too small")
        # identity ranking until fitted: difference value v -> codeword
        # CODEWORDS[v], keeping d=0 on the weight-0 codeword.
        self._tables: list[list[int]] = [
            [CODEWORDS[v] for v in range(size)] for _ in range(self.num_chunks)
        ]
        self._rebuild_inverse()

    def _rebuild_inverse(self) -> None:
        self._inverse: list[Dict[int, int]] = []
        for table in self._tables:
            inverse: Dict[int, int] = {}
            for value, code in enumerate(table):
                inverse[code] = value
            self._inverse.append(inverse)

    @property
    def max_weight_per_transfer(self) -> int:
        return self.num_chunks * MAX_CODEWORD_WEIGHT

    def _chunks(self, word: int) -> list[int]:
        mask = (1 << CHUNK_WIDTH) - 1
        return [
            (word >> (pos * CHUNK_WIDTH)) & mask for pos in range(self.num_chunks)
        ]

    def _differences(self, words: Sequence[int]) -> list[int]:
        masked = list(map(self._mask.__and__, words))
        return list(map(xor, masked, [0] + masked[:-1]))

    def fit(self, words: Sequence[int]) -> "LowWeightCodeEncoder":
        # steady-state differences only: the first transfer is free
        # under the shared convention, so d_0 = w_0 would skew ranks.
        # Hot loops repeat a few differences many times, so each
        # distinct difference is split into chunks once and weighted.
        counts: list[Counter] = [Counter() for _ in range(self.num_chunks)]
        for diff, n in Counter(self._differences(words)[1:]).items():
            for pos, chunk in enumerate(self._chunks(diff)):
                counts[pos][chunk] += n
        size = 1 << CHUNK_WIDTH
        for pos, count in enumerate(counts):
            ranked = sorted(range(size), key=lambda v: (-count[v], v))
            table = [0] * size
            for rank, value in enumerate(ranked):
                table[value] = CODEWORDS[rank]
            self._tables[pos] = table
        self._rebuild_inverse()
        return self

    def _codeword(self, diff: int) -> int:
        out = 0
        for pos, chunk in enumerate(self._chunks(diff)):
            out |= self._tables[pos][chunk] << (pos * CODE_WIDTH)
        return out

    def _difference(self, codeword: int) -> int:
        diff = 0
        code_mask = (1 << CODE_WIDTH) - 1
        for pos in range(self.num_chunks):
            code = (codeword >> (pos * CODE_WIDTH)) & code_mask
            try:
                value = self._inverse[pos][code]
            except KeyError:
                raise EncodingError(
                    f"invalid low-weight codeword {code:#07b} at chunk {pos}"
                ) from None
            diff |= value << (pos * CHUNK_WIDTH)
        return diff

    def encode(self, words: Sequence[int]) -> EncodedStream:
        diffs = self._differences(words)
        table = {d: self._codeword(d) for d in set(diffs)}
        return EncodedStream(
            self.scheme,
            self.num_chunks * CODE_WIDTH,
            list(accumulate(map(table.__getitem__, diffs), xor)),
        )

    def decode(self, stream: EncodedStream) -> list[int]:
        driven = list(stream.driven)
        codewords = list(map(xor, driven, [0] + driven[:-1]))
        # first-occurrence order, so an invalid codeword raises for the
        # earliest bad transfer
        table = {c: self._difference(c) for c in dict.fromkeys(codewords)}
        return list(accumulate(map(table.__getitem__, codewords), xor))

    def budget(self) -> HardwareBudget:
        size = 1 << CHUNK_WIDTH
        return HardwareBudget(
            table_bits=self.num_chunks * size * (CODE_WIDTH + CHUNK_WIDTH),
            extra_lines=self.num_chunks * CODE_WIDTH - self.width,
            stateful=True,
        )

    def to_config(self) -> dict:
        return {"width": self.width, "tables": [list(t) for t in self._tables]}

    @classmethod
    def from_config(cls, config: dict) -> "LowWeightCodeEncoder":
        enc = cls(width=int(config.get("width", 32)))
        tables = config.get("tables")
        if tables is not None:
            if len(tables) != enc.num_chunks:
                raise EncodingError("low-weight config has wrong chunk count")
            enc._tables = [[int(c) for c in table] for table in tables]
            enc._rebuild_inverse()
        return enc


@register_reference_counter("low-weight")
def _lowweight_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Transition signalling means toggles-per-transfer equals the
    codeword weight of the difference — count weights directly from
    the words without building the driven stream.  Chunks are looked up
    in the serialised ``to_config()`` tables with a loop of its own, so
    this shares no code with ``encode``."""
    tables = encoder.to_config()["tables"]
    mask = (1 << encoder.width) - 1
    total = 0
    prev = None
    for word in words:
        word &= mask
        if prev is not None:
            diff = word ^ prev
            for table in tables:
                total += table[diff % len(table)].bit_count()
                diff //= len(table)
        prev = word
    return total
