"""The histogram fits against per-word reference fits.

``LowWeightCodeEncoder.fit`` and ``MemorylessCodebookEncoder.fit``
count each distinct difference / word pair once and weight it, and
``exact_assignment`` pins its first placed value to code 0.  The
references below are the straightforward per-word loops (one chunk
split per difference per position, one pair graph per sub-bus, an
unpinned branch and bound); every fitted table must come out the same.
"""

import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lowweight import CHUNK_WIDTH, CODEWORDS, LowWeightCodeEncoder
from repro.baselines.memoryless import (
    MemorylessCodebookEncoder,
    exact_assignment,
    greedy_assignment,
)

from tests.strategies import fetch_word_streams

MASK32 = (1 << 32) - 1

#: hot, all-distinct, empty, single-word and constant word streams
word_streams = st.one_of(
    fetch_word_streams(max_length=120),
    st.lists(
        st.integers(min_value=0, max_value=MASK32), max_size=120, unique=True
    ),
    st.just([]),
    st.lists(st.integers(min_value=0, max_value=MASK32), min_size=1, max_size=1),
    st.builds(
        lambda word, n: [word] * n,
        st.integers(min_value=0, max_value=MASK32),
        st.integers(min_value=2, max_value=60),
    ),
)


def lowweight_tables_per_word(words, num_chunks=8):
    """Rank every chunk position's difference values by splitting each
    steady-state difference again for every position."""
    diffs = []
    prev = 0
    for word in words:
        word &= MASK32
        diffs.append(word ^ prev)
        prev = word
    diffs = diffs[1:]
    size = 1 << CHUNK_WIDTH
    tables = []
    for pos in range(num_chunks):
        chunks = [
            [(d >> (p * CHUNK_WIDTH)) & (size - 1) for p in range(num_chunks)][pos]
            for d in diffs
        ]
        counts = Counter(chunks)
        ranked = sorted(range(size), key=lambda v: (-counts[v], v))
        table = [0] * size
        for rank, value in enumerate(ranked):
            table[value] = CODEWORDS[rank]
        tables.append(table)
    return tables


def unpinned_exact_assignment(distinct, weights, code_space):
    """Branch and bound over every code at every level, first strict
    improvement kept."""
    n = len(distinct)

    def w(a, b):
        return weights.get((a, b) if a < b else (b, a), 0)

    best_cost = [float("inf")]
    best = [[]]
    chosen = []

    def walk(i, cost):
        if cost >= best_cost[0]:
            return
        if i == n:
            best_cost[0] = cost
            best[0] = list(chosen)
            return
        for code in range(code_space):
            if code in chosen:
                continue
            step = cost + sum(
                w(distinct[i], distinct[j]) * (code ^ chosen[j]).bit_count()
                for j in range(i)
            )
            if step >= best_cost[0]:
                continue
            chosen.append(code)
            walk(i + 1, step)
            chosen.pop()

    walk(0, 0)
    return dict(zip(distinct, best[0]))


def memoryless_maps_per_word(words, subbus_width=4, max_exact=5, width=32):
    """Build each sub-bus's value list and pair graph from the words."""
    size = 1 << subbus_width
    maps = []
    for bus in range(width // subbus_width):
        shift = bus * subbus_width
        values = [(w >> shift) & (size - 1) for w in words]
        weights = {}
        for a, b in zip(values, values[1:]):
            if a != b:
                key = (min(a, b), max(a, b))
                weights[key] = weights.get(key, 0) + 1

        def incident(v):
            return sum(n for pair, n in weights.items() if v in pair)

        distinct = sorted(set(values), key=lambda v: (-incident(v), v))
        if len(distinct) <= max_exact:
            assignment = unpinned_exact_assignment(distinct, weights, size)
        else:
            assignment = greedy_assignment(distinct, weights, size)
        leftovers = iter(c for c in range(size) if c not in assignment.values())
        maps.append(
            [
                assignment[v] if v in assignment else next(leftovers)
                for v in range(size)
            ]
        )
    return maps


@settings(max_examples=150, deadline=None)
@given(word_streams)
def test_lowweight_fit_matches_per_word_ranking(words):
    fitted = LowWeightCodeEncoder().fit(words).to_config()
    assert fitted["tables"] == lowweight_tables_per_word(words)


@settings(max_examples=60, deadline=None)
@given(word_streams)
def test_memoryless_fit_matches_per_word_graphs(words):
    fitted = MemorylessCodebookEncoder().fit(words).to_config()
    assert fitted["maps"] == memoryless_maps_per_word(words)


def _lex_first_optimum(distinct, weights, code_space):
    """Exhaustive: every injective code sequence in lexicographic
    order, the first one of least cost."""

    def cost(codes):
        return sum(
            weights.get((distinct[i], distinct[j]), 0)
            * (codes[i] ^ codes[j]).bit_count()
            for i in range(len(codes))
            for j in range(len(codes))
            if distinct[i] < distinct[j]
        )

    best = min(permutations(range(code_space), len(distinct)), key=cost)
    return dict(zip(distinct, best))


@pytest.mark.parametrize("code_space", (4, 8, 16))
@pytest.mark.parametrize("n", (0, 1, 2, 3, 4))
@pytest.mark.parametrize("seed", range(3))
def test_pinned_exact_assignment_is_the_lex_first_optimum(code_space, n, seed):
    rng = random.Random(f"exact:{code_space}:{n}:{seed}")
    distinct = rng.sample(range(16), n)
    # small weights with zeros, so ties between optima are common
    weights = {
        (a, b): rng.randint(0, 3)
        for a in distinct
        for b in distinct
        if a < b
    }
    pinned = exact_assignment(distinct, weights, code_space)
    assert pinned == _lex_first_optimum(distinct, weights, code_space)
    if distinct:
        assert pinned[distinct[0]] == 0
