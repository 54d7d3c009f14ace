"""Tests for the bulk ``decode_trace`` bitplane fast path.

``FetchDecoder.decode_trace`` routes clean sequential basic-block
occurrences through one lane-packed bitplane scan per occurrence.  The
contract is *bit-identical observable behaviour* to the hardware's
per-fetch walk (``reset()``, ``fetch()`` per PC, ``finalize()``): same
decoded words, same architectural counters, same exceptions — across
hot-loop revisits, partial occurrences, branchy interleavings,
passthrough gaps, truncation, and corrupted images.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import DecodeFault
from repro.hw.fetch_decoder import FetchDecoder
from tests.strategies import rng_for, seeded_deployment

BLOCK_SIZES = (2, 4, 5, 7)


def _decoder_for(deployment):
    return FetchDecoder(
        deployment.tt,
        deployment.bbit,
        deployment.block_size,
        encoded_region=deployment.encoded_region,
    )


def _stats(decoder):
    return {
        "decoded": decoder.decoded_instructions,
        "passthrough": decoder.passthrough_instructions,
        "tt_reads": decoder.tt_reads,
    }


def _decode(deployment, trace, lookup, finalize, bulk):
    """One walk on a fresh decoder: the bulk ``decode_trace``, or the
    per-fetch walk it must be indistinguishable from."""
    decoder = _decoder_for(deployment)
    if bulk:
        return decoder, decoder.decode_trace(trace, lookup, finalize=finalize)
    decoder.reset()
    words = [decoder.fetch(pc, lookup(pc)) for pc in trace]
    if finalize:
        decoder.finalize()
    return decoder, words


def _both_paths(deployment, trace, lookup=None, finalize=False):
    """Run the bulk and per-fetch walks on fresh decoders; return
    ((words, stats), (words, stats))."""
    lookup = lookup or deployment.image.__getitem__
    results = []
    for bulk in (True, False):
        decoder, words = _decode(deployment, trace, lookup, finalize, bulk)
        results.append((words, _stats(decoder)))
    return results


def _golden(deployment, trace):
    return [deployment.golden_lookup(pc) for pc in trace]


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_sequential_blocks_match_scalar(block_size):
    deployment = seeded_deployment(f"seq:{block_size}", block_size)
    trace = [
        pc
        for which in range(len(deployment.bases))
        for pc in deployment.trace_for(which)
    ]
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == _golden(deployment, trace)
    assert bulk == scalar
    assert bulk_stats == scalar_stats


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_hot_loop_revisits_use_memo(block_size):
    # The same block fetched many times: the memo serves repeats, and
    # the architectural counters still advance per occurrence.
    deployment = seeded_deployment(f"hot:{block_size}", block_size)
    once = deployment.trace_for(0)
    trace = once * 25
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == scalar == _golden(deployment, trace)
    assert bulk_stats == scalar_stats
    assert bulk_stats["decoded"] == len(trace)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_memo_rechecks_stored_words_per_occurrence(block_size):
    # One stored word of an encoded block reads differently on the
    # block's second occurrence only: that occurrence must decode from
    # what was fetched, not from the first occurrence's memo entry.
    deployment = seeded_deployment(f"drift:{block_size}", block_size)
    once = deployment.trace_for(0)
    victim = once[len(once) // 2]
    trace = once * 3

    def drifting_lookup():
        seen = Counter()

        def lookup(pc):
            seen[pc] += 1
            word = deployment.image[pc]
            if pc == victim and seen[pc] == 2:
                return word ^ 0xFFFFFFFF
            return word

        return lookup

    walks = [
        _decode(deployment, trace, drifting_lookup(), True, bulk)
        for bulk in (True, False)
    ]
    (bulk_decoder, bulk), (scalar_decoder, scalar) = walks
    assert bulk == scalar
    assert _stats(bulk_decoder) == _stats(scalar_decoder)
    golden = _golden(deployment, once)
    assert bulk[: len(once)] == bulk[2 * len(once) :] == golden
    assert bulk[len(once) : 2 * len(once)] != golden


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_branchy_interleaving_matches_scalar(block_size):
    # Random walk over the deployed blocks: full runs, early exits
    # (taken branches), immediate re-entries.
    deployment = seeded_deployment(f"branchy:{block_size}", block_size, 4)
    rng = rng_for("branchy-trace", block_size)
    trace = []
    for _ in range(60):
        which = rng.randrange(len(deployment.bases))
        full = deployment.trace_for(which)
        cut = rng.randint(1, len(full))
        trace.extend(full[:cut])
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == scalar
    assert bulk_stats == scalar_stats


def test_passthrough_gap_between_blocks():
    # Unencoded addresses between block runs take the passthrough
    # path on both walks; counters agree.
    deployment = seeded_deployment("gap", 5)
    outside = 0x700000
    image = dict(deployment.image)
    plain = {outside + 4 * i: 0x12345678 + i for i in range(3)}
    image.update(plain)
    trace = (
        deployment.trace_for(0)
        + sorted(plain)
        + deployment.trace_for(1)
    )
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace, lookup=image.__getitem__
    )
    assert bulk == scalar
    assert bulk_stats == scalar_stats
    assert bulk_stats["passthrough"] == len(plain)


def test_mid_block_entry_raises_on_both_paths():
    deployment = seeded_deployment("midblock", 4)
    # Enter at the second instruction: inside the encoded region but
    # with no BBIT hit.
    trace = deployment.trace_for(0)[1:]
    for bulk in (True, False):
        with pytest.raises(DecodeFault, match="mid-block entry"):
            _decode(
                deployment, trace, deployment.image.__getitem__, False, bulk
            )


def test_truncated_trace_finalize_parity():
    # A trace that ends mid-block: without finalize both paths return
    # the prefix; with finalize both raise the same truncation fault.
    deployment = seeded_deployment("trunc", 5)
    full = deployment.trace_for(0)
    assert len(full) >= 3
    trace = full[:-1]
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace
    )
    assert bulk == scalar == _golden(deployment, trace)
    assert bulk_stats == scalar_stats

    messages = []
    for bulk in (True, False):
        with pytest.raises(DecodeFault) as excinfo:
            _decode(
                deployment, trace, deployment.image.__getitem__, True, bulk
            )
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("block_size", (4, 7))
def test_corrupted_image_decodes_identically(block_size):
    # A flipped stored bit yields *wrong* words — but the same wrong
    # words on both paths (the scan is a pure function of the image).
    deployment = seeded_deployment(f"corrupt:{block_size}", block_size)
    trace = deployment.trace_for(0)
    image = dict(deployment.image)
    victim = trace[len(trace) // 2]
    image[victim] ^= 1 << 13
    (bulk, bulk_stats), (scalar, scalar_stats) = _both_paths(
        deployment, trace, lookup=image.__getitem__
    )
    assert bulk == scalar
    assert bulk_stats == scalar_stats
    assert bulk != _golden(deployment, trace)


def test_scalar_fallback_modes_bypass_bulk(monkeypatch):
    # Non-strict modes must not touch the bulk path; the decode still
    # round-trips.
    deployment = seeded_deployment("modes", 5)
    trace = deployment.trace_for(0)
    golden = _golden(deployment, trace)

    def no_bulk(self, addresses, lookup):
        raise AssertionError("bulk bitplane walk used outside strict mode")

    monkeypatch.setattr(FetchDecoder, "_decode_trace_bitplane", no_bulk)
    for mode in ("recover", "degraded"):
        decoder = FetchDecoder(
            deployment.tt,
            deployment.bbit,
            deployment.block_size,
            encoded_region=deployment.encoded_region,
            mode=mode,
            golden_lookup=deployment.golden_lookup,
        )
        assert (
            decoder.decode_trace(trace, deployment.image.__getitem__)
            == golden
        )


def test_reuse_across_traces_resets_cleanly():
    # decode_trace resets the engine: back-to-back calls on one
    # decoder behave like calls on fresh decoders.
    deployment = seeded_deployment("reuse", 5)
    decoder = _decoder_for(deployment)
    for which in (0, 1, 0, 2):
        trace = deployment.trace_for(which)
        assert decoder.decode_trace(
            trace, deployment.image.__getitem__
        ) == _golden(deployment, trace)
