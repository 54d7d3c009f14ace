"""Cross-validation of the compiled codebook fast path against the
seed :class:`BlockSolver` reference implementation.

The contract is strict bit-identity: for any stream, block size and
strategy, encoding through the codebook must produce a byte-identical
:class:`StreamEncoding` (same stored bits, same segment/transformation
plan) to the reference path, and both the bitplane decoder and the
bit-serial oracle must round-trip."""

import itertools

import pytest
from hypothesis import given, settings

from tests.strategies import (
    bit_streams,
    encode_strategies,
    hw_block_sizes,
    rng_for,
    seeded_blocks,
    seeded_words,
)

from repro.core.bitstream import (
    count_transitions,
    count_transitions_int,
    pack_bits,
    unpack_bits,
)
from repro.core.block_solver import BlockSolver
from repro.core.boolfunc import TT_Y, BoolFunc
from repro.core.fastpath import (
    CompiledCodebook,
    clear_codebook_cache,
    get_codebook,
)
from repro.core.program_codec import (
    decode_basic_block,
    decode_basic_block_bit_serial,
    encode_basic_block,
    encode_basic_blocks,
)
from repro.core.stream_codec import (
    StreamEncoder,
    decode_bit_serial,
    decode_stream,
    decode_with_plan,
    encode_stream,
)
from repro.core.transformations import (
    ALL_TRANSFORMATIONS,
    OPTIMAL_SET,
    Transformation,
)

# Shared suite-wide strategies (tests/strategies.py): the same input
# distributions the `repro verify` differential campaign draws from.
streams = bit_streams
block_sizes = hw_block_sizes
strategies = encode_strategies


class TestIntHelpers:
    @given(streams)
    def test_pack_unpack_roundtrip(self, stream):
        packed = pack_bits(stream)
        assert list(unpack_bits(packed, len(stream))) == stream

    @given(streams)
    def test_int_transition_count_matches(self, stream):
        packed = pack_bits(stream)
        assert count_transitions_int(packed, len(stream)) == count_transitions(
            stream
        )


class TestCodebookTables:
    def test_anchored_table_matches_solver(self):
        book = get_codebook(4)
        solver = BlockSolver(OPTIMAL_SET)
        for length in (1, 2, 3, 4):
            for word_int in range(1 << length):
                word = [(word_int >> i) & 1 for i in range(length)]
                solution = solver.solve_anchored(word)
                code_int, tau, cost = book.anchored[length][word_int]
                assert code_int == pack_bits(list(solution.code))
                assert tau == solution.transformation
                assert cost == solution.encoded_transitions

    def test_constrained_table_matches_solver(self):
        book = get_codebook(4)
        solver = BlockSolver(OPTIMAL_SET)
        for length in (2, 3, 4):
            for fixed in (0, 1):
                for word_int in range(1 << length):
                    word = [(word_int >> i) & 1 for i in range(length)]
                    solution = solver.solve_constrained(word, fixed)
                    code_int, tau, cost = book.constrained[length][fixed][
                        word_int
                    ]
                    assert code_int == pack_bits(list(solution.code))
                    assert tau == solution.transformation
                    assert cost == solution.encoded_transitions

    def test_cache_returns_same_object(self):
        assert get_codebook(5) is get_codebook(5, OPTIMAL_SET)

    def test_cache_distinguishes_sets(self):
        assert get_codebook(5, OPTIMAL_SET) is not get_codebook(
            5, ALL_TRANSFORMATIONS
        )

    def test_cache_clear(self):
        before = get_codebook(3)
        clear_codebook_cache()
        assert get_codebook(3) is not before

    def test_block_size_too_small(self):
        with pytest.raises(ValueError):
            CompiledCodebook(1)


class TestStreamBitIdentity:
    @given(streams, block_sizes, strategies)
    @settings(max_examples=300, deadline=None)
    def test_fast_matches_reference(self, stream, block_size, strategy):
        fast = encode_stream(stream, block_size, strategy=strategy)
        reference = encode_stream(
            stream, block_size, strategy=strategy, use_codebook=False
        )
        assert fast == reference  # full dataclass identity
        assert decode_stream(fast) == stream
        assert decode_bit_serial(
            fast.encoded, block_size, fast.transformations(), fast.overlapped
        ) == stream

    @given(streams, block_sizes)
    @settings(max_examples=150, deadline=None)
    def test_full_16_set_matches(self, stream, block_size):
        fast = encode_stream(stream, block_size, ALL_TRANSFORMATIONS)
        reference = encode_stream(
            stream, block_size, ALL_TRANSFORMATIONS, use_codebook=False
        )
        assert fast == reference

    def test_long_random_streams_all_strategies(self):
        # The satellite regression: random streams, k in 2..7, every
        # strategy, byte-identical encodings plus exact round-trips.
        rng = rng_for("fastpath-long-streams", 20030310)
        for block_size in range(2, 8):
            for strategy in ("greedy", "optimal", "disjoint"):
                stream = [rng.randint(0, 1) for _ in range(400)]
                fast = encode_stream(stream, block_size, strategy=strategy)
                reference = encode_stream(
                    stream, block_size, strategy=strategy, use_codebook=False
                )
                assert fast == reference
                assert decode_stream(fast) == stream
                plan = fast.transformations()
                assert decode_bit_serial(
                    fast.encoded, block_size, plan, fast.overlapped
                ) == stream
                if strategy != "disjoint":
                    assert (
                        decode_with_plan(
                            list(fast.encoded), block_size, plan
                        )
                        == stream
                    )

    @given(streams, block_sizes)
    @settings(max_examples=150, deadline=None)
    def test_plan_decode_fast_matches_reference(self, stream, block_size):
        encoding = encode_stream(stream, block_size)
        stored = list(encoding.encoded)
        plan = encoding.transformations()
        assert decode_with_plan(stored, block_size, plan) == decode_bit_serial(
            stored, block_size, plan
        )


class TestProgramBitIdentity:
    def test_basic_block_fast_matches_reference(self):
        for num_words, block_size in itertools.product((1, 2, 5, 17, 64), (2, 5, 7)):
            words = seeded_words((num_words, block_size, 99), num_words)
            fast = encode_basic_block(words, block_size)
            reference = encode_basic_block(
                words, block_size, use_codebook=False
            )
            assert fast == reference
            assert decode_basic_block(fast) == words
            assert decode_basic_block_bit_serial(fast) == words

    def test_basic_block_strategies_match(self):
        words = seeded_words(7, 20)
        for strategy in ("greedy", "optimal"):
            fast = encode_basic_block(words, 5, strategy=strategy)
            reference = encode_basic_block(
                words, 5, strategy=strategy, use_codebook=False
            )
            assert fast == reference

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            encode_basic_block([1, 2, 3], 5, strategy="magic")

    def test_batch_matches_single(self):
        blocks = seeded_blocks(31, 6)
        batch = encode_basic_blocks(blocks, 5)
        singles = [encode_basic_block(words, 5) for words in blocks]
        assert batch == singles

    def test_parallel_matches_serial(self):
        blocks = seeded_blocks(32, 4, max_words=16)
        serial = encode_basic_blocks(blocks, 5)
        try:
            parallel = encode_basic_blocks(blocks, 5, parallel=2)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pools unavailable here: {exc}")
        assert parallel == serial


class TestDegenerateSets:
    """A candidate set without identity/inversion cannot express every
    block word; fast and reference paths must fail identically."""

    HISTORY_ONLY = (Transformation(BoolFunc(TT_Y)),)

    def test_greedy_raises_same_error(self):
        stream = [0, 1, 1, 0, 1]
        with pytest.raises(RuntimeError) as fast_error:
            encode_stream(stream, 3, self.HISTORY_ONLY)
        with pytest.raises(RuntimeError) as reference_error:
            encode_stream(stream, 3, self.HISTORY_ONLY, use_codebook=False)
        assert str(fast_error.value) == str(reference_error.value)

    def test_optimal_raises_clear_error_both_paths(self):
        stream = [0, 1, 1, 0, 1]
        for use_codebook in (True, False):
            with pytest.raises(RuntimeError, match="optimal DP state is empty"):
                encode_stream(
                    stream,
                    3,
                    self.HISTORY_ONLY,
                    strategy="optimal",
                    use_codebook=use_codebook,
                )

    def test_expressible_stream_still_encodes(self):
        # ~y alone expresses alternating streams; both paths agree.
        alternating = [0, 1] * 6
        tau_set = (Transformation(BoolFunc(0b0101)),)  # ~y
        fast = encode_stream(alternating, 4, tau_set)
        reference = encode_stream(
            alternating, 4, tau_set, use_codebook=False
        )
        assert fast == reference
        assert decode_stream(fast) == alternating
