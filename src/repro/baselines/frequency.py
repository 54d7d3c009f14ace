"""Static frequency-ranked opcode remapping, after the low-power ISA
re-encoding idea of Benini et al. (GLS-VLSI 1998) — reference [6].

The original collects instruction-adjacency statistics and re-assigns
opcodes so frequent pairs are Hamming-close.  We implement the core
mechanism at word granularity: rank the distinct instruction words of
a hot region by dynamic frequency and re-assign code points so that
the most frequent words get codes with small pairwise Hamming
distances (a greedy minimum-weight assignment over the code space).
The mapping is a dictionary — exactly the cost the paper's Section 3
argues against, which the comparison benches quantify.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Sequence

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)

#: Code points come from the low ``min(width, 20)`` lines only.
_CODE_LINES_MAX = 20


def _code_candidates(width: int, count: int) -> list[int]:
    """``count`` code points with small mutual Hamming distances:
    breadth-first by popcount (0, then weight-1 codes, ...), ascending
    within each weight."""
    lines = min(width, _CODE_LINES_MAX)
    if count > 1 << lines:
        raise ValueError("code space exhausted")
    codes: list[int] = []
    weight = 0
    while len(codes) < count:
        codes.extend(
            sorted(
                sum(1 << line for line in chosen)
                for chosen in combinations(range(lines), weight)
            )
        )
        weight += 1
    return codes[:count]


@register_encoder
class FrequencyEncoder(Encoder):
    """A dictionary-based re-encoder for a closed set of words.

    ``fit`` ranks the distinct words of a training trace by frequency
    and gives the most frequent the codes of smallest weight; encoding
    a (possibly different) trace looks each word up.  Words outside
    the learned dictionary are driven unchanged with an *escape* line
    asserted (modelling the miss signal a real implementation needs),
    packed into bit ``width`` of each driven value.  Because of that
    extra line the scheme is a bus codec, not an image-deployable
    recoder, even though its mapping is stateless.
    """

    scheme = "frequency"
    deployable = False

    def __init__(self, width: int = 32, max_entries: int = 256) -> None:
        self.width = width
        self.max_entries = max_entries
        self._mask = (1 << width) - 1
        #: learned dictionary: original word -> code point
        self.mapping: dict[int, int] = {}
        self._inverse: dict[int, int] = {}

    def _set_mapping(self, mapping: dict[int, int]) -> None:
        self.mapping = mapping
        self._inverse = {code: word for word, code in mapping.items()}

    def fit(self, words: Sequence[int]) -> "FrequencyEncoder":
        ranked = [w for w, _ in Counter(words).most_common(self.max_entries)]
        self._set_mapping(dict(zip(ranked, _code_candidates(self.width, len(ranked)))))
        return self

    def encode(self, words: Sequence[int]) -> EncodedStream:
        stream = EncodedStream(self.scheme, self.width + 1)
        escape = 1 << self.width
        for word in words:
            word &= self._mask
            code = self.mapping.get(word)
            stream.driven.append(escape | word if code is None else code)
        return stream

    def decode(self, stream: EncodedStream) -> list[int]:
        out = []
        for packed in stream.driven:
            escape = (packed >> self.width) & 1
            driven = packed & self._mask
            out.append(driven if escape else self._inverse[driven])
        return out

    def to_config(self) -> dict:
        return {
            "width": self.width,
            "max_entries": self.max_entries,
            "mapping": sorted(self.mapping.items()),
        }

    @classmethod
    def from_config(cls, config: dict) -> "FrequencyEncoder":
        enc = cls(
            width=int(config.get("width", 32)),
            max_entries=int(config.get("max_entries", 256)),
        )
        enc._set_mapping({int(w): int(c) for w, c in config.get("mapping", [])})
        return enc

    def budget(self) -> HardwareBudget:
        """The dictionary costs two full words per entry — the paper's
        Section 3 objection to dictionary techniques."""
        return HardwareBudget(
            table_bits=len(self.mapping) * 2 * self.width,
            extra_lines=1,
            stateful=False,
        )


@register_reference_counter("frequency")
def _frequency_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Recount from the fitted dictionary alone: a hit toggles the
    distance between consecutive driven values, and the escape line
    toggles whenever a hit follows a miss or vice versa."""
    mask = (1 << encoder.width) - 1
    total = 0
    previous_driven = previous_escape = None
    for word in words:
        word &= mask
        escape = word not in encoder.mapping
        driven = word if escape else encoder.mapping[word]
        if previous_driven is not None:
            total += bin(driven ^ previous_driven).count("1")
            total += int(escape != previous_escape)
        previous_driven, previous_escape = driven, escape
    return total
