"""Chained encoding of arbitrary-length bit streams (Section 6).

A stream is split into blocks of ``block_size`` bits with a one-bit
overlap between neighbours: block ``j`` covers stream positions
``[j*(k-1), j*(k-1) + k)``.  The first block is anchored (its first
stored bit equals the original); every later block inherits its first
stored bit from the previous block's encoding, which couples the block
choices sequentially ("the transformation selected for a given block
depends on the transformation selected for the previous block").

Three strategies are provided:

``greedy``
    The paper's iterative approach: encode blocks left to right, each
    minimising its own transitions given the inherited overlap bit.
``optimal``
    A dynamic program over the one-bit block interface that finds the
    globally minimal-transition encoding; used to substantiate the
    paper's empirical claim that greedy is near-optimal.
``disjoint``
    Blocks without overlap, each independently anchored — the strawman
    the paper dismisses ("Were blocks to be disjoint, no improvement
    can be effected" across boundaries); kept for the overlap ablation.

Two implementations back every strategy.  The default routes through
the **compiled codebook fast path** (:mod:`repro.core.fastpath`):
streams are packed into Python ints and each block resolves to one
table lookup.  ``use_codebook=False`` selects the seed reference
implementation that calls :class:`BlockSolver` per block; the two are
cross-validated bit-for-bit in ``tests/core/test_fastpath.py``.

Decoding has one engine and one oracle: :func:`decode_stream` and
:func:`decode_with_plan` run the bitplane doubling scan
(:mod:`repro.core.bitplane`), and :func:`decode_bit_serial` spells out
the paper's recurrence bit by bit for the checks to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core import bitplane
from repro.core.bitstream import (
    count_transitions,
    count_transitions_int,
    pack_bits,
    unpack_bits,
    validate_bits,
)
from repro.core.block_solver import BlockSolver
from repro.core.fastpath import (
    CompiledCodebook,
    encode_disjoint_int,
    encode_greedy_int,
    encode_optimal_int,
    get_codebook,
    optimal_dp_empty_error,
)
from repro.core.transformations import (
    IDENTITY,
    OPTIMAL_SET,
    Transformation,
)

_INF = 1 << 30

STRATEGIES = ("greedy", "optimal", "disjoint")


@dataclass(frozen=True)
class SegmentEncoding:
    """One encoded block within a stream.

    ``start`` indexes the stream position of the block's first bit
    (the overlap bit for non-initial blocks); ``length`` counts the
    positions covered including the overlap bit.
    """

    start: int
    length: int
    transformation: Transformation

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class StreamEncoding:
    """A fully encoded bit stream with its block/transformation plan.

    ``encoded_int`` and ``truth_tables`` are derived decode metadata
    the compiled encoder already holds (the packed stored bits and the
    per-segment tau truth tables); carrying them spares the bitplane
    decoder re-deriving both on every call.  They are excluded from
    equality/repr — a reference-path encoding (which leaves them
    ``None``) still compares equal to its fast-path twin, and decode
    falls back to recomputing them.
    """

    original: tuple[int, ...]
    encoded: tuple[int, ...]
    block_size: int
    segments: tuple[SegmentEncoding, ...]
    overlapped: bool = True
    encoded_int: int | None = field(default=None, compare=False, repr=False)
    truth_tables: tuple[int, ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def original_transitions(self) -> int:
        return count_transitions(self.original)

    @property
    def encoded_transitions(self) -> int:
        return count_transitions(self.encoded)

    @property
    def reduction(self) -> int:
        return self.original_transitions - self.encoded_transitions

    @property
    def reduction_percent(self) -> float:
        total = self.original_transitions
        if total == 0:
            return 0.0
        return 100.0 * self.reduction / total

    def transformations(self) -> list[Transformation]:
        return [segment.transformation for segment in self.segments]


def segment_bounds(length: int, block_size: int, overlapped: bool = True) -> list[tuple[int, int]]:
    """Block (start, length) pairs covering a stream of ``length`` bits.

    With overlap, consecutive blocks share one position; the tail block
    may be shorter than ``block_size`` (the hardware handles it via the
    E/CT fields of the Transformation Table, Section 7.2).
    """
    if block_size < 2:
        raise ValueError(f"block size must be >= 2, got {block_size}")
    return list(_segment_bounds_cached(length, block_size, overlapped))


@lru_cache(maxsize=4096)
def _segment_bounds_cached(
    length: int, block_size: int, overlapped: bool
) -> tuple[tuple[int, int], ...]:
    if length <= 0:
        return ()
    if length == 1:
        return ((0, 1),)
    bounds = []
    if overlapped:
        start = 0
        while start < length - 1:
            bounds.append((start, min(block_size, length - start)))
            start += block_size - 1
    else:
        start = 0
        while start < length:
            bounds.append((start, min(block_size, length - start)))
            start += block_size
    return tuple(bounds)


class StreamEncoder:
    """Encoder for vertical bit streams.

    Parameters
    ----------
    block_size:
        Block length ``k`` (the paper studies 4..7).
    transformations:
        Candidate transformation set (defaults to the optimal 8-set).
    strategy:
        ``"greedy"`` (the paper's), ``"optimal"`` (interface DP) or
        ``"disjoint"`` (no overlap, ablation only).
    use_codebook:
        ``True`` (default) encodes through the compiled codebook fast
        path; ``False`` runs the reference per-block solver.  Outputs
        are bit-identical either way.
    """

    def __init__(
        self,
        block_size: int,
        transformations: Sequence[Transformation] = OPTIMAL_SET,
        strategy: str = "greedy",
        use_codebook: bool = True,
    ) -> None:
        if block_size < 2:
            raise ValueError(f"block size must be >= 2, got {block_size}")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.block_size = block_size
        self.transformations = tuple(transformations)
        self.strategy = strategy
        self._solver = BlockSolver(self.transformations)
        self._codebook: CompiledCodebook | None = (
            get_codebook(block_size, self.transformations)
            if use_codebook
            else None
        )

    @property
    def use_codebook(self) -> bool:
        return self._codebook is not None

    # ------------------------------------------------------------------

    def encode(self, stream: Sequence[int]) -> StreamEncoding:
        """Encode a stream; decoding the result restores it exactly."""
        stream = validate_bits(stream)
        if not stream:
            return StreamEncoding((), (), self.block_size, (), self.strategy != "disjoint")
        if len(stream) == 1:
            return StreamEncoding(
                tuple(stream),
                tuple(stream),
                self.block_size,
                (SegmentEncoding(0, 1, IDENTITY),),
                self.strategy != "disjoint",
            )
        if self.strategy == "greedy":
            return self._encode_greedy(stream)
        if self.strategy == "optimal":
            return self._encode_optimal(stream)
        return self._encode_disjoint(stream)

    # ------------------------------------------------------------------
    # Compiled fast path (default)
    # ------------------------------------------------------------------

    def _fast_result(
        self,
        stream: list[int],
        encoded_int: int,
        taus: list[Transformation],
        bounds: Sequence[tuple[int, int]],
        overlapped: bool,
    ) -> StreamEncoding:
        segments = tuple(
            SegmentEncoding(start, seg_len, tau)
            for (start, seg_len), tau in zip(bounds, taus)
        )
        return StreamEncoding(
            tuple(stream),
            unpack_bits(encoded_int, len(stream)),
            self.block_size,
            segments,
            overlapped,
            encoded_int=encoded_int,
            truth_tables=tuple(tau.func.truth_table for tau in taus),
        )

    # ------------------------------------------------------------------

    def _encode_greedy(self, stream: list[int]) -> StreamEncoding:
        if self._codebook is not None:
            bounds = _segment_bounds_cached(len(stream), self.block_size, True)
            encoded_int, taus = encode_greedy_int(
                self._codebook, pack_bits(stream), bounds
            )
            return self._fast_result(stream, encoded_int, taus, bounds, True)
        bounds = segment_bounds(len(stream), self.block_size, overlapped=True)
        encoded: list[int] = [0] * len(stream)
        segments: list[SegmentEncoding] = []
        for index, (start, seg_len) in enumerate(bounds):
            word = stream[start : start + seg_len]
            if index == 0:
                solution = self._solver.solve_anchored(word)
            else:
                solution = self._solver.solve_constrained(word, encoded[start])
            for offset, bit in enumerate(solution.code):
                encoded[start + offset] = bit
            segments.append(
                SegmentEncoding(start, seg_len, solution.transformation)
            )
        return StreamEncoding(
            tuple(stream), tuple(encoded), self.block_size, tuple(segments), True
        )

    def _encode_disjoint(self, stream: list[int]) -> StreamEncoding:
        if self._codebook is not None:
            bounds = _segment_bounds_cached(len(stream), self.block_size, False)
            encoded_int, taus = encode_disjoint_int(
                self._codebook, pack_bits(stream), bounds
            )
            return self._fast_result(stream, encoded_int, taus, bounds, False)
        bounds = segment_bounds(len(stream), self.block_size, overlapped=False)
        encoded: list[int] = [0] * len(stream)
        segments: list[SegmentEncoding] = []
        for start, seg_len in bounds:
            word = stream[start : start + seg_len]
            solution = self._solver.solve_anchored(word)
            for offset, bit in enumerate(solution.code):
                encoded[start + offset] = bit
            segments.append(
                SegmentEncoding(start, seg_len, solution.transformation)
            )
        return StreamEncoding(
            tuple(stream), tuple(encoded), self.block_size, tuple(segments), False
        )

    def _encode_optimal(self, stream: list[int]) -> StreamEncoding:
        """Global minimum via DP over the one-bit block interface.

        For each block and each (incoming stored bit, outgoing stored
        bit, transformation) we precompute the minimal internal
        transitions; a forward pass then chains blocks through the
        shared overlap bit.
        """
        if self._codebook is not None:
            bounds = _segment_bounds_cached(len(stream), self.block_size, True)
            encoded_int, taus, best_cost = encode_optimal_int(
                self._codebook, pack_bits(stream), bounds
            )
            result = self._fast_result(stream, encoded_int, taus, bounds, True)
            realised = count_transitions_int(encoded_int, len(stream))
            if realised != best_cost:
                raise RuntimeError(
                    f"optimal encoder self-check failed: DP cost {best_cost}"
                    f" != realised transitions {realised}"
                )
            return result
        bounds = segment_bounds(len(stream), self.block_size, overlapped=True)
        # profiles[j][(in_bit, out_bit)] = (cost, transformation, code)
        profiles: list[dict[tuple[int, int], tuple[int, Transformation, tuple[int, ...]]]] = []
        for index, (start, seg_len) in enumerate(bounds):
            word = stream[start : start + seg_len]
            profile: dict[tuple[int, int], tuple[int, Transformation, tuple[int, ...]]] = {}
            in_bits = (word[0],) if index == 0 else (0, 1)
            for in_bit in in_bits:
                for transformation in self.transformations:
                    fixed_first = None if index == 0 else in_bit
                    by_final = self._solver.best_by_final_bit(
                        word, transformation, fixed_first
                    )
                    if by_final is None:
                        continue
                    for out_bit, (cost, code) in by_final.items():
                        key = (in_bit, out_bit)
                        if key not in profile or cost < profile[key][0]:
                            profile[key] = (cost, transformation, code)
            profiles.append(profile)

        # Forward DP over the interface bit.
        state: dict[int, tuple[int, list[tuple[Transformation, tuple[int, ...]]]]] = {}
        first_profile = profiles[0]
        for (in_bit, out_bit), (cost, transformation, code) in first_profile.items():
            if out_bit not in state or cost < state[out_bit][0]:
                state[out_bit] = (cost, [(transformation, code)])
        for block_index, profile in enumerate(profiles[1:], start=1):
            if not state:
                raise optimal_dp_empty_error(
                    block_index - 1, bounds[block_index - 1][0]
                )
            new_state: dict[int, tuple[int, list[tuple[Transformation, tuple[int, ...]]]]] = {}
            for (in_bit, out_bit), (cost, transformation, code) in profile.items():
                if in_bit not in state:
                    continue
                prev_cost, prev_plan = state[in_bit]
                total = prev_cost + cost
                if out_bit not in new_state or total < new_state[out_bit][0]:
                    new_state[out_bit] = (total, prev_plan + [(transformation, code)])
            state = new_state
        if not state:
            last = len(bounds) - 1
            raise optimal_dp_empty_error(last, bounds[last][0])

        best_cost, plan = min(state.values(), key=lambda item: item[0])
        encoded: list[int] = [0] * len(stream)
        segments: list[SegmentEncoding] = []
        for (start, seg_len), (transformation, code) in zip(bounds, plan):
            for offset, bit in enumerate(code):
                encoded[start + offset] = bit
            segments.append(SegmentEncoding(start, seg_len, transformation))
        result = StreamEncoding(
            tuple(stream), tuple(encoded), self.block_size, tuple(segments), True
        )
        # Explicit check (not a bare assert: `python -O` must not strip
        # the verification from the production path).
        if result.encoded_transitions != best_cost:
            raise RuntimeError(
                f"optimal encoder self-check failed: DP cost {best_cost}"
                f" != realised transitions {result.encoded_transitions}"
            )
        return result


def encode_stream(
    stream: Sequence[int],
    block_size: int,
    transformations: Sequence[Transformation] = OPTIMAL_SET,
    strategy: str = "greedy",
    use_codebook: bool = True,
) -> StreamEncoding:
    """Convenience wrapper around :class:`StreamEncoder`."""
    encoder = StreamEncoder(block_size, transformations, strategy, use_codebook)
    return encoder.encode(stream)


def _plan_bounds(
    length: int, block_size: int, overlapped: bool, plan_length: int
) -> tuple[tuple[int, int], ...]:
    """The segment bounds of a ``length``-bit stream, checked against
    the number of per-segment transformations the caller supplied."""
    if block_size < 2:
        raise ValueError(f"block size must be >= 2, got {block_size}")
    bounds = _segment_bounds_cached(length, block_size, overlapped)
    if len(bounds) != plan_length:
        raise ValueError(
            f"plan length {plan_length} does not match "
            f"{len(bounds)} blocks for a stream of {length} bits"
        )
    return bounds


def decode_bit_serial(
    encoded: Sequence[int],
    block_size: int,
    transformations: Sequence[Transformation],
    overlapped: bool = True,
) -> list[int]:
    """The decode oracle: the paper's recurrence, one bit at a time.

    The stream's first bit passes through unchanged; every later
    position ``p`` restores as ``d[p] = tau(e[p], d[p-1])`` with
    ``tau`` the transformation of the segment covering ``p``.  Under
    the disjoint layout every segment start re-anchors instead.  Kept
    deliberately naive: the bitplane engine behind :func:`decode_stream`,
    :func:`decode_with_plan` and the block decoder is checked against
    it by the tests and the differential verify campaign.
    """
    encoded = validate_bits(encoded)
    bounds = _plan_bounds(
        len(encoded), block_size, overlapped, len(transformations)
    )
    decoded = encoded[:1]
    for (start, seg_len), transformation in zip(bounds, transformations):
        if not overlapped and start != 0:
            decoded.append(encoded[start])  # each disjoint block re-anchors
        for pos in range(start + 1, start + seg_len):
            decoded.append(transformation(encoded[pos], decoded[pos - 1]))
    return decoded


def decode_stream(encoding: StreamEncoding) -> list[int]:
    """Decode a :class:`StreamEncoding` through the bitplane scan.

    Mirrors the hardware: the stream's first bit passes through
    unchanged; every later bit is ``tau(stored, previous_decoded)``
    with ``tau`` selected by the segment covering that position.
    Raises :class:`ValueError` when the encoding's segments do not
    tile its stream.
    """
    length = len(encoding.encoded)
    bounds = _plan_bounds(
        length, encoding.block_size, encoding.overlapped, len(encoding.segments)
    )
    if any(
        (segment.start, segment.length) != bound
        for segment, bound in zip(encoding.segments, bounds)
    ):
        raise ValueError(
            f"segments of a {length}-bit stream do not match its "
            f"k={encoding.block_size} segmentation"
        )
    if not length:
        return []
    # Fast-path encodings carry their packed bits and truth tables
    # already; reference-path ones re-derive both here.
    packed = encoding.encoded_int
    if packed is None:
        packed, length = bitplane.pack_validated(encoding.encoded)
    truth_tables = encoding.truth_tables
    if truth_tables is None:
        truth_tables = tuple(
            s.transformation.func.truth_table for s in encoding.segments
        )
    decoded_int = bitplane.decode_plan_bitplane(
        packed,
        length,
        bounds,
        (),
        encoding.overlapped,
        truth_tables=truth_tables,
    )
    return bitplane.bits_list(decoded_int, length)


def decode_with_plan(
    encoded: Sequence[int],
    block_size: int,
    transformations: Sequence[Transformation],
) -> list[int]:
    """Decode from raw materials (stored bits + per-block tau plan) —
    exactly the information a Transformation Table holds — through the
    bitplane scan."""
    packed, length = bitplane.pack_validated(encoded)
    bounds = _plan_bounds(length, block_size, True, len(transformations))
    if length == 0:
        return []
    decoded_int = bitplane.decode_plan_bitplane(
        packed, length, bounds, transformations, True
    )
    return bitplane.bits_list(decoded_int, length)
