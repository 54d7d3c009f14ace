"""Deliberate decoder mutations: the harness's self-test.

A differential verifier that never fires is indistinguishable from one
that cannot fire.  Each named mutation perturbs exactly one decode (or
encode) path in-process; a campaign run under a mutation MUST produce
mismatches and replayable counterexamples, and ``repro verify
--inject-mutation X --check`` MUST exit non-zero.  The e2e CLI test
and the CI smoke job both lean on this.

Mutations are applied per process (the campaign's pool initializer
re-applies them in every worker) and recorded in each counterexample,
so ``repro verify --replay`` can reconstruct the exact faulty world
that produced a divergence.
"""

from __future__ import annotations

from repro.errors import VerifyError

#: Mutation registry: name -> (description, apply function).
_APPLIED: list[str] = []


def _mutate_codebook_entry() -> None:
    """Flip a stored code bit in one compiled anchored entry (k=5,
    word 0b10110).  The fast encode path diverges from the reference
    BlockSolver for exactly that block word — caught by the exhaustive
    codebook sweep and by any stream that contains the word."""
    from repro.core.fastpath import get_codebook

    book = get_codebook(5)
    entry = book.anchored[5][0b10110]
    if entry is None:  # pragma: no cover - optimal set always expresses it
        raise VerifyError("mutation target entry is infeasible")
    code_int, tau, cost = entry
    # Bit 0 anchors the block (equals the original first bit), so the
    # flip lands on a body bit and survives re-anchoring.
    book.anchored[5][0b10110] = (code_int ^ 0b00010, tau, cost)


def _mutate_bitplane_scan() -> None:
    """XOR bit 1 into every bitplane doubling-scan decode of a stream
    at least two bits long (bit 0 is the anchor, which the bit-serial
    oracle also reproduces verbatim, so the flip lands on a decoded
    body bit).  Caught by the stream checks (bitplane vs the bit-serial
    oracle) and the exhaustive τ sweep."""
    from repro.core import bitplane

    real = bitplane.decode_plan_bitplane

    def corrupted(encoded_int, length, bounds, transformations, *args, **kwargs):
        decoded = real(
            encoded_int, length, bounds, transformations, *args, **kwargs
        )
        if length >= 2:
            decoded ^= 0b10
        return decoded

    bitplane.decode_plan_bitplane = corrupted


def _mutate_tt_decode() -> None:
    """XOR bit 0 into every hardware TT-entry decode.  The fetch
    decoder's restored words diverge from the golden program on every
    non-anchor instruction — caught by the program/deployment checks."""
    from repro.hw.tt import TTEntry

    real = TTEntry.decode

    def corrupted(self, stored_word: int, previous_decoded: int) -> int:
        return real(self, stored_word, previous_decoded) ^ 1

    TTEntry.decode = corrupted


def _mutate_memoryless_codebook() -> None:
    """Swap two encode-map entries on sub-bus 0 of every fitted
    memoryless encoder *without* updating the inverse table.  Encode
    and decode disagree for any word whose low sub-bus value is 0 or
    1 — caught deterministically by the encoder sweep's inverse check
    and by the random encoder-zoo roundtrip cases."""
    from repro.baselines.memoryless import MemorylessCodebookEncoder

    real = MemorylessCodebookEncoder._set_tables

    def corrupted(self, bus: int, table: list) -> None:
        real(self, bus, table)
        if bus == 0:
            maps = self._maps[0]
            maps[0], maps[1] = maps[1], maps[0]  # inverse left stale

    MemorylessCodebookEncoder._set_tables = corrupted


def _mutate_lowweight_codeword() -> None:
    """Corrupt one entry of the shared low-weight codeword table to a
    weight-5 codeword.  Every encoder built afterwards violates the
    m-out-of-n weight bound — caught deterministically by the encoder
    sweep's codeword-weight invariant."""
    from repro.baselines import lowweight

    lowweight.CODEWORDS[6] = 0b11111


MUTATIONS: dict[str, tuple[str, object]] = {
    "codebook-entry": (
        "one compiled anchored codebook entry stores a flipped code bit",
        _mutate_codebook_entry,
    ),
    "tt-decode": (
        "hardware TT entry decode XORs bit 0 into every restored word",
        _mutate_tt_decode,
    ),
    "bitplane-scan": (
        "bitplane doubling scan XORs bit 1 into every decoded stream",
        _mutate_bitplane_scan,
    ),
    "memoryless-codebook": (
        "memoryless sub-bus 0 encode map swaps two entries, inverse stale",
        _mutate_memoryless_codebook,
    ),
    "lowweight-codeword": (
        "low-weight codeword table entry rewritten to weight 5",
        _mutate_lowweight_codeword,
    ),
}


def apply_mutation(name: str | None) -> None:
    """Arm one named mutation in this process (idempotent per name)."""
    if name is None:
        return
    if name not in MUTATIONS:
        raise VerifyError(
            f"unknown mutation {name!r}; available: {', '.join(MUTATIONS)}"
        )
    if name in _APPLIED:
        return
    MUTATIONS[name][1]()
    _APPLIED.append(name)


def applied_mutations() -> tuple[str, ...]:
    return tuple(_APPLIED)
