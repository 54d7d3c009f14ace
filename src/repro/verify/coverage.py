"""Behaviour-space coverage accounting for the verification campaign.

"Zero mismatches" is only as strong as the inputs that produced it, so
every differential case reports which behaviours it exercised and the
campaign qualifies its verdict with coverage over explicit, enumerable
universes (in the exhaustive-enumeration spirit of Chee et al.):

``codebook_entries``
    Every compiled-codebook lookup class for each block size ``k``:
    all ``2**k`` full-width block words through the anchored path and
    both constrained variants (fixed overlap bit 0/1) — ``3 * 2**k``
    entries per ``k``.  The built-in exhaustive sweep covers this
    universe deterministically; the gate demands 100% for k=4..7.
``tau_selectors``
    The eight hardware transformation selectors, per block size,
    exercised through the *decode* direction (bitplane scan vs
    bit-serial oracle vs TT-entry differential).  Gated at 100% for k=4..7.
``block_sizes``
    Which configured ``k`` values ran at all.
``boundary_residues``
    Stream length mod ``k-1`` — the tail/overlap boundary classes
    (full tail, short tail, single-bit tail...).
``tail_lengths``
    The tail segment length each stream case ended on (1..k).
``decoder_transitions``
    The fetch-decoder mode-transition space: clean, SEC-DED-corrected
    and uncorrectable TT/BBIT corruption, each observed under strict,
    recover and degraded modes (12 classes).
``encoder_schemes``
    Every registered encoder-zoo backend
    (:data:`repro.baselines.protocol.ENCODER_REGISTRY`), exercised by
    the encoder differential cases and the deterministic encoder
    sweep.  Gated at 100%: a backend that registers but never passes
    through the campaign is a gate violation, not a silent gap.

Coverage keys are plain strings (``"k=5|anchored|17"``) so per-case
contributions serialise through the process pool and into
``VERIFY_report.json`` unchanged.
"""

from __future__ import annotations

from typing import Iterable, Mapping

#: Fault-handling classes the tables cases must observe, per mode.
DECODER_TRANSITIONS = tuple(
    f"{event}:{mode}"
    for event in ("clean", "corrected", "tt_uncorrectable", "bbit_uncorrectable")
    for mode in ("strict", "recover", "degraded")
)

#: Block sizes whose codebook/τ coverage the ``--check`` gate demands
#: at 100% (the paper studies k=4..7; smaller ks are exercised but
#: not gated).
GATED_BLOCK_SIZES = (4, 5, 6, 7)


def _registered_encoder_schemes() -> tuple:
    """The encoder-zoo universe, resolved at tracker construction so a
    newly registered backend automatically widens the gate."""
    from repro.baselines.protocol import registered_schemes

    return registered_schemes()


def codebook_key(k: int, variant: str, word_int: int) -> str:
    return f"k={k}|{variant}|{word_int}"


def tau_key(k: int, selector: int) -> str:
    return f"k={k}|tau={selector}"


class CoverageTracker:
    """Merges per-case coverage contributions against fixed universes."""

    def __init__(self, block_sizes: Iterable[int]):
        self.block_sizes = tuple(sorted(set(block_sizes)))
        self.universes: dict[str, set[str]] = {
            "block_sizes": {f"k={k}" for k in self.block_sizes},
            "codebook_entries": {
                codebook_key(k, variant, word)
                for k in self.block_sizes
                for variant in ("anchored", "constrained0", "constrained1")
                for word in range(1 << k)
            },
            "tau_selectors": {
                tau_key(k, selector)
                for k in self.block_sizes
                for selector in range(8)
            },
            "boundary_residues": {
                f"k={k}|mod={residue}"
                for k in self.block_sizes
                if k >= 2
                for residue in range(max(1, k - 1))
            },
            "tail_lengths": {
                f"k={k}|tail={length}"
                for k in self.block_sizes
                for length in range(1, k + 1)
            },
            "decoder_transitions": set(DECODER_TRANSITIONS),
            "encoder_schemes": set(_registered_encoder_schemes()),
        }
        self.covered: dict[str, set[str]] = {
            dimension: set() for dimension in self.universes
        }

    # ------------------------------------------------------------------

    def cover(self, dimension: str, key: str) -> None:
        if dimension in self.covered:
            self.covered[dimension].add(key)

    def merge(self, contributions: Mapping[str, Iterable[str]]) -> None:
        """Fold one case's coverage (dimension -> keys) in."""
        for dimension, keys in contributions.items():
            bucket = self.covered.get(dimension)
            if bucket is not None:
                bucket.update(keys)

    # ------------------------------------------------------------------

    def percent(self, dimension: str, prefix: str = "") -> float:
        universe = self.universes[dimension]
        if prefix:
            universe = {key for key in universe if key.startswith(prefix)}
        if not universe:
            return 100.0
        hit = len(universe & self.covered[dimension])
        return 100.0 * hit / len(universe)

    def snapshot(self) -> dict:
        """The report's coverage block: per-dimension totals plus a
        per-``k`` breakdown for the gated dimensions."""
        block: dict = {}
        for dimension, universe in self.universes.items():
            covered = self.covered[dimension] & universe
            entry = {
                "covered": len(covered),
                "universe": len(universe),
                "percent": round(100.0 * len(covered) / len(universe), 2)
                if universe
                else 100.0,
                "missing": sorted(universe - covered)[:16],
            }
            if dimension in ("codebook_entries", "tau_selectors"):
                entry["by_block_size"] = {
                    str(k): round(self.percent(dimension, f"k={k}|"), 2)
                    for k in self.block_sizes
                }
            block[dimension] = entry
        return block

    def gate_problems(self) -> list[str]:
        """Violations of the acceptance gate: 100% codebook-entry and
        τ-selector coverage for every configured k in 4..7."""
        problems = []
        for k in self.block_sizes:
            if k not in GATED_BLOCK_SIZES:
                continue
            for dimension in ("codebook_entries", "tau_selectors"):
                pct = self.percent(dimension, f"k={k}|")
                if pct < 100.0:
                    problems.append(
                        f"{dimension} coverage for k={k} is {pct:.1f}% "
                        "(gate demands 100%)"
                    )
        scheme_pct = self.percent("encoder_schemes")
        if scheme_pct < 100.0:
            missing = sorted(
                self.universes["encoder_schemes"]
                - self.covered["encoder_schemes"]
            )
            problems.append(
                f"encoder_schemes coverage is {scheme_pct:.1f}% "
                f"(gate demands 100%; missing: {', '.join(missing)})"
            )
        return problems
