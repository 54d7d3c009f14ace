"""Memoryless minimum-transition codebook encoding.

After Chee, Colbourn & Ling, *Optimal Memoryless Encoding for Low
Power Off-Chip Data Buses* (arXiv:0712.2640): a memoryless code is a
fixed bijective remapping of bus values — no history, no extra lines —
chosen to minimise the expected number of transitions under the
observed word-pair distribution.  Finding the optimal remap for a full
32-bit bus is intractable, but the problem decomposes: the Hamming
distance of a 32-bit transfer is the sum of independent per-sub-bus
distances, so we split the bus into narrow sub-buses (4 lines by
default) and solve each one against its own transition graph.

Per sub-bus, ``fit`` counts how often each unordered pair of sub-bus
values appears on consecutive transfers (the weighted transition
graph), then assigns codewords:

* **exact** when at most ``max_exact`` distinct values occur — a
  branch-and-bound search over injective assignments of values to the
  ``2**subbus_width`` codewords, minimising
  ``sum(weight(u, v) * popcount(code(u) ^ code(v)))``.  This is the
  regime the paper's optimality result covers; the golden-vector tests
  cross-check it against brute force.
* **greedy** otherwise — values are placed in descending order of
  incident weight, each taking the free codeword with the least
  weighted distance to the already-placed neighbours.

Values never seen in the profile get the leftover codewords in
deterministic order, so the map is always a bijection and the encoder
is deployable: stored words are rewritten in the image and each fetch
decodes independently through the inverse tables.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Sequence, Tuple

from repro.baselines.protocol import (
    EncodedStream,
    Encoder,
    HardwareBudget,
    register_encoder,
    register_reference_counter,
)
from repro.core.transitions import word_transitions
from repro.errors import EncodingError


def _pair_weights(
    pairs: Dict[Tuple[int, int], int], shift: int, mask: int
) -> Dict[Tuple[int, int], int]:
    """Weighted transition graph of one sub-bus: unordered pair of
    sub-bus values -> adjacency count, projected from the counts of
    consecutive whole-word pairs."""
    weights: Dict[Tuple[int, int], int] = {}
    for (a, b), n in pairs.items():
        a = (a >> shift) & mask
        b = (b >> shift) & mask
        if a == b:
            continue  # zero distance under any bijection
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0) + n
    return weights


def _incident_weight(value: int, weights: Dict[Tuple[int, int], int]) -> int:
    return sum(w for (u, v), w in weights.items() if value in (u, v))


def exact_assignment(
    distinct: Sequence[int],
    weights: Dict[Tuple[int, int], int],
    code_space: int,
) -> Dict[int, int]:
    """Optimal injective value->codeword map by branch and bound.

    ``distinct`` fixes the placement order; candidate codewords are
    tried in ascending order and only strict improvements are kept, so
    the result is the lexicographically first optimum.  The weighted
    Hamming cost is invariant under XOR-ing every code with one
    constant, so that optimum places ``distinct[0]`` on code 0: the
    first level tries code 0 alone, which returns the same map and
    skips all but ``1 / code_space`` of the search.
    """
    n = len(distinct)
    codes = list(range(code_space))
    pair_w = [
        [
            weights.get(
                (distinct[i], distinct[j]) if distinct[i] < distinct[j] else (distinct[j], distinct[i]),
                0,
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    best_cost = [float("inf")]
    best: list[list[int]] = [[]]
    chosen: list[int] = []
    used = [False] * code_space

    def walk(i: int, cost: int) -> None:
        if cost >= best_cost[0]:
            return
        if i == n:
            best_cost[0] = cost
            best[0] = list(chosen)
            return
        for code in codes if i else codes[:1]:
            if used[code]:
                continue
            step = cost
            for j in range(i):
                w = pair_w[i][j]
                if w:
                    step += w * (code ^ chosen[j]).bit_count()
            if step >= best_cost[0]:
                continue
            used[code] = True
            chosen.append(code)
            walk(i + 1, step)
            chosen.pop()
            used[code] = False

    walk(0, 0)
    return dict(zip(distinct, best[0]))


def greedy_assignment(
    distinct: Sequence[int],
    weights: Dict[Tuple[int, int], int],
    code_space: int,
) -> Dict[int, int]:
    """Heuristic value->codeword map for dense transition graphs."""
    assignment: Dict[int, int] = {}
    free_codes = list(range(code_space))
    remaining = list(distinct)
    while remaining:
        if not assignment:
            value = remaining.pop(0)
            assignment[value] = free_codes.pop(0)
            continue
        # heaviest coupling to the already-placed set goes next
        def coupling(v: int) -> int:
            total = 0
            for placed in assignment:
                key = (v, placed) if v < placed else (placed, v)
                total += weights.get(key, 0)
            return total

        remaining.sort(key=lambda v: (-coupling(v), v))
        value = remaining.pop(0)
        best_code, best_cost = None, None
        for code in free_codes:
            cost = 0
            for placed, placed_code in assignment.items():
                key = (value, placed) if value < placed else (placed, value)
                w = weights.get(key, 0)
                if w:
                    cost += w * (code ^ placed_code).bit_count()
            if best_cost is None or cost < best_cost:
                best_code, best_cost = code, cost
        assignment[value] = best_code  # type: ignore[assignment]
        free_codes.remove(best_code)  # type: ignore[arg-type]
    return assignment


@register_encoder
class MemorylessCodebookEncoder(Encoder):
    """Per-sub-bus bijective remapping minimising weighted transitions."""

    scheme = "memoryless"
    deployable = True

    def __init__(
        self,
        width: int = 32,
        subbus_width: int = 4,
        max_exact: int = 5,
    ) -> None:
        if width % subbus_width != 0:
            raise EncodingError(
                f"width {width} is not a multiple of sub-bus width {subbus_width}"
            )
        self.width = width
        self.subbus_width = subbus_width
        self.max_exact = max_exact
        self._mask = (1 << width) - 1
        self._sub_mask = (1 << subbus_width) - 1
        self.num_subbuses = width // subbus_width
        size = 1 << subbus_width
        self._maps: list[list[int]] = [list(range(size)) for _ in range(self.num_subbuses)]
        self._inverse: list[list[int]] = [list(range(size)) for _ in range(self.num_subbuses)]

    # -- fitting -------------------------------------------------------
    def subbus_values(self, words: Sequence[int], bus: int) -> list[int]:
        shift = bus * self.subbus_width
        return [(w >> shift) & self._sub_mask for w in words]

    def fit(self, words: Sequence[int]) -> "MemorylessCodebookEncoder":
        size = 1 << self.subbus_width
        # hot loops repeat a few words and word pairs many times: count
        # them once over whole words, then project onto each sub-bus
        pairs = Counter(zip(words, words[1:]))
        distinct_words = set(words)
        for bus in range(self.num_subbuses):
            shift = bus * self.subbus_width
            weights = _pair_weights(pairs, shift, self._sub_mask)
            distinct = sorted(
                {(w >> shift) & self._sub_mask for w in distinct_words},
                key=lambda v: (-_incident_weight(v, weights), v),
            )
            if len(distinct) <= self.max_exact:
                assignment = exact_assignment(distinct, weights, size)
            else:
                assignment = greedy_assignment(distinct, weights, size)
            used = set(assignment.values())
            leftovers = iter(c for c in range(size) if c not in used)
            table = [0] * size
            for value in range(size):
                table[value] = assignment.get(value, -1)
            for value in range(size):
                if table[value] < 0:
                    table[value] = next(leftovers)
            self._set_tables(bus, table)
        return self

    def _set_tables(self, bus: int, table: list[int]) -> None:
        size = 1 << self.subbus_width
        inverse = [0] * size
        for value, code in enumerate(table):
            inverse[code] = value
        self._maps[bus] = table
        self._inverse[bus] = inverse

    # -- stateless word recoding ---------------------------------------
    def encode_word(self, word: int) -> int:
        word &= self._mask
        out = 0
        for bus in range(self.num_subbuses):
            shift = bus * self.subbus_width
            out |= self._maps[bus][(word >> shift) & self._sub_mask] << shift
        return out

    def decode_word(self, word: int) -> int:
        word &= self._mask
        out = 0
        for bus in range(self.num_subbuses):
            shift = bus * self.subbus_width
            out |= self._inverse[bus][(word >> shift) & self._sub_mask] << shift
        return out

    def encode(self, words: Sequence[int]) -> EncodedStream:
        table = {w: self.encode_word(w) for w in set(words)}
        return EncodedStream(
            self.scheme, self.width, list(map(table.__getitem__, words))
        )

    def decode(self, stream: EncodedStream) -> list[int]:
        table = {w: self.decode_word(w) for w in set(stream.driven)}
        return list(map(table.__getitem__, stream.driven))

    # -- metadata ------------------------------------------------------
    def budget(self) -> HardwareBudget:
        size = 1 << self.subbus_width
        return HardwareBudget(
            table_bits=self.num_subbuses * size * self.subbus_width * 2,
            extra_lines=0,
            stateful=False,
        )

    def to_config(self) -> dict:
        return {
            "width": self.width,
            "subbus_width": self.subbus_width,
            "max_exact": self.max_exact,
            "maps": [list(t) for t in self._maps],
        }

    @classmethod
    def from_config(cls, config: dict) -> "MemorylessCodebookEncoder":
        enc = cls(
            width=int(config.get("width", 32)),
            subbus_width=int(config.get("subbus_width", 4)),
            max_exact=int(config.get("max_exact", 5)),
        )
        maps = config.get("maps")
        if maps is not None:
            if len(maps) != enc.num_subbuses:
                raise EncodingError("memoryless config has wrong sub-bus count")
            size = 1 << enc.subbus_width
            for bus, table in enumerate(maps):
                table = [int(c) for c in table]
                if sorted(table) != list(range(size)):
                    raise EncodingError(
                        f"memoryless sub-bus {bus} map is not a bijection"
                    )
                enc._set_tables(bus, table)
        return enc


@register_reference_counter("memoryless")
def _memoryless_reference(encoder: Encoder, words: Sequence[int]) -> int:
    """Sub-bus-by-sub-bus recount: the Hamming distance of the packed
    stream must equal the sum of per-sub-bus mapped distances."""
    total = 0
    for bus in range(encoder.num_subbuses):
        values = encoder.subbus_values(words, bus)
        mapped = [encoder._maps[bus][v] for v in values]
        total += word_transitions(mapped)
    return total
