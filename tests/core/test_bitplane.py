"""Property tests for the packed-bitplane decode core.

The bitplane module is the one production decode engine: it runs the
paper's bit-serial recurrence as parallel-prefix doubling scans at
three entry points (stream, plan, block).  These tests pin the scans to
the bit-serial oracle bit-for-bit across seeded streams,
hypothesis-drawn inputs, every block size the paper studies (k=2..7)
and boundary/tail lengths — plus the packing bridges
(``pack_validated``/``bits_list``/``transpose_words``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitplane
from repro.core.bitstream import pack_bits
from repro.core.program_codec import (
    decode_basic_block,
    decode_basic_block_bit_serial,
    encode_basic_block,
)
from repro.core.stream_codec import (
    decode_bit_serial,
    decode_stream,
    decode_with_plan,
    encode_stream,
    segment_bounds,
)
from tests.strategies import (
    bit_streams,
    hw_block_sizes,
    instruction_words,
    seeded_burst,
    seeded_stream,
    seeded_words,
)


# ----------------------------------------------------------------------
# Packing bridges
# ----------------------------------------------------------------------


class TestPackValidated:
    @given(bit_streams)
    def test_matches_pack_bits(self, stream):
        packed, length = bitplane.pack_validated(stream)
        assert packed == pack_bits(stream)
        assert length == len(stream)

    @given(bit_streams)
    def test_bits_list_roundtrip(self, stream):
        packed, length = bitplane.pack_validated(stream)
        assert bitplane.bits_list(packed, length) == stream

    def test_accepts_any_iterable(self):
        packed, length = bitplane.pack_validated(iter([1, 0, 1, 1]))
        assert (packed, length) == (0b1101, 4)

    def test_empty(self):
        assert bitplane.pack_validated([]) == (0, 0)
        assert bitplane.bits_list(0, 0) == []

    def test_rejects_out_of_range_int(self):
        # Same canonical message as bitstream.validate_bits.
        with pytest.raises(ValueError, match="must be 0 or 1, got 2"):
            bitplane.pack_validated([0, 1, 2])

    def test_rejects_negative_int(self):
        with pytest.raises(ValueError, match="must be 0 or 1, got -1"):
            bitplane.pack_validated([0, -1])

    def test_rejects_non_int(self):
        with pytest.raises(ValueError, match="must be 0 or 1, got 'x'"):
            bitplane.pack_validated([0, "x", 1])

    def test_accepts_bool_like_scalar_paths(self):
        # validate_bits accepts True/False (== 1/0); so must the
        # packed fast path.
        packed, length = bitplane.pack_validated([True, False, True])
        assert (packed, length) == (0b101, 3)


class TestTranspose:
    @given(instruction_words)
    def test_roundtrip(self, words):
        packed = bitplane.transpose_words(words)
        assert bitplane.untranspose_words(packed, len(words)) == words

    @given(instruction_words)
    def test_lane_layout(self, words):
        # Bit L*n+t of the packed operand is bit L of words[t].
        n = len(words)
        packed = bitplane.transpose_words(words)
        for lane in (0, 1, 31):
            for t in (0, n - 1):
                assert (packed >> (lane * n + t)) & 1 == (
                    words[t] >> lane
                ) & 1

    def test_empty(self):
        assert bitplane.transpose_words([]) == 0
        assert bitplane.untranspose_words(0, 0) == []

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=9)
    )
    def test_narrow_width(self, words):
        # The non-32 width takes the pure-Python path even with numpy.
        packed = bitplane.transpose_words(words, width=8)
        assert bitplane.untranspose_words(packed, len(words), width=8) == words


# ----------------------------------------------------------------------
# The doubling scan vs the literal recurrence
# ----------------------------------------------------------------------


class TestSolveFirstOrder:
    @given(
        st.integers(min_value=0, max_value=(1 << 200) - 1),
        st.integers(min_value=0, max_value=(1 << 200) - 1),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200)
    def test_matches_sequential_recurrence(self, coeff, const, nbits):
        expected = 0
        prev = 0
        for p in range(nbits):
            bit = ((const >> p) & 1) ^ (((coeff >> p) & 1) & prev)
            expected |= bit << p
            prev = bit
        assert bitplane.solve_first_order(coeff, const, nbits) == expected

    def test_zero_length(self):
        assert bitplane.solve_first_order(123, 456, 0) == 0


# ----------------------------------------------------------------------
# Stream/plan decode vs the bit-serial oracle
# ----------------------------------------------------------------------


class TestPlanDecode:
    @given(bit_streams, hw_block_sizes)
    @settings(max_examples=200)
    def test_matches_scalar_plan_decode(self, stream, block_size):
        encoding = encode_stream(stream, block_size)
        plan = encoding.transformations()
        packed, length = bitplane.pack_validated(encoding.encoded)
        bounds = tuple(segment_bounds(length, block_size))
        serial = decode_bit_serial(encoding.encoded, block_size, plan)
        assert bitplane.decode_plan_bitplane(
            packed, length, bounds, plan
        ) == pack_bits(serial)

    @given(bit_streams, hw_block_sizes)
    @settings(max_examples=150)
    def test_disjoint_reanchoring(self, stream, block_size):
        encoding = encode_stream(stream, block_size, strategy="disjoint")
        plan = encoding.transformations()
        packed, length = bitplane.pack_validated(encoding.encoded)
        bounds = tuple(segment_bounds(length, block_size, overlapped=False))
        serial = decode_bit_serial(
            encoding.encoded, block_size, plan, overlapped=False
        )
        assert serial == stream
        assert bitplane.decode_plan_bitplane(
            packed, length, bounds, plan, overlapped=False
        ) == pack_bits(serial)

    @pytest.mark.parametrize("block_size", range(2, 8))
    def test_boundary_and_tail_lengths(self, block_size):
        # Lengths 1..3k sweep every tail-residue class: exact multiples
        # of the segment stride, one-over, and sub-block streams.
        for length in range(1, 3 * block_size + 1):
            for seed_kind, stream in (
                ("biased", seeded_stream(f"tail:{block_size}:{length}", length)),
                ("burst", seeded_burst(f"tail:{block_size}:{length}", length)),
            ):
                for strategy in ("greedy", "optimal", "disjoint"):
                    encoding = encode_stream(
                        stream, block_size, strategy=strategy
                    )
                    assert decode_stream(encoding) == stream, (
                        seed_kind,
                        strategy,
                        length,
                    )

    @pytest.mark.parametrize("block_size", range(4, 8))
    def test_seeded_long_streams_all_paths_agree(self, block_size):
        for seed in range(6):
            stream = (
                seeded_stream(f"long:{block_size}:{seed}", 800, bias=0.7)
                if seed % 2
                else seeded_burst(f"long:{block_size}:{seed}", 800)
            )
            encoding = encode_stream(stream, block_size)
            assert decode_stream(encoding) == stream
            plan = encoding.transformations()
            stored = list(encoding.encoded)
            assert decode_bit_serial(stored, block_size, plan) == stream
            assert decode_with_plan(stored, block_size, plan) == stream


class TestBlockDecode:
    @given(instruction_words, hw_block_sizes)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_block_decode(self, words, block_size):
        encoding = encode_basic_block(words, block_size)
        assert decode_basic_block_bit_serial(encoding) == words
        plans = tuple(
            tuple(t.func.truth_table for t in plan)
            for plan in encoding.segment_plans
        )
        bounds = tuple(segment_bounds(len(words), block_size))
        assert (
            bitplane.decode_block_bitplane(
                encoding.encoded_words, bounds, plans, width=encoding.width
            )
            == words
        )

    @pytest.mark.parametrize("block_size", range(2, 8))
    def test_seeded_blocks_boundary_sizes(self, block_size):
        # Block lengths straddling the segment stride, including the
        # single-word block (pure anchors, no TT row).
        for count in (1, 2, block_size - 1, block_size, block_size + 1, 3 * block_size):
            words = seeded_words(f"block:{block_size}:{count}", count)
            encoding = encode_basic_block(words, block_size)
            assert decode_basic_block(encoding) == words
            assert decode_basic_block_bit_serial(encoding) == words


def test_transpose_fallback_matches_numpy_path():
    """The format-string transpose (the path every non-32-bit bus
    takes) and the 32-bit packbits transpose are the same function
    observably — cross-check them directly."""
    for seed in range(5):
        words = seeded_words(f"xpose:{seed}", 3 + 7 * seed)
        fast = bitplane.transpose_words(words)
        rows = [format(w, "032b") for w in words]
        slow = int(
            "".join(
                column[::-1]
                for column in ("".join(c) for c in zip(*rows))
            ),
            2,
        )
        assert fast == slow
