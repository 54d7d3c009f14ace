"""Codec throughput harness: compiled fast path vs. reference solver.

Measures the hot encode/decode paths on the same workloads
``benchmarks/test_perf_components.py`` uses (a 5000-bit random stream,
a 64-word basic block; seed 1234) and reports streams/s, words/s,
bits/s and the speedup of the compiled codebook fast path over the
seed :class:`~repro.core.block_solver.BlockSolver` reference (and of
the bitplane decoder over the bit-serial decode oracle).  Results
are written to ``BENCH_codec.json`` so the performance trajectory is
tracked across PRs (CI uploads the file as an artifact; ``repro
bench`` produces it locally).

Every case cross-checks fast and reference outputs for bit-identity
before timing — a benchmark of a wrong result is meaningless.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.program_codec import (
    decode_basic_block,
    decode_basic_block_bit_serial,
    encode_basic_block,
)
from repro.core.stream_codec import (
    StreamEncoder,
    decode_bit_serial,
    decode_stream,
    decode_with_plan,
)
from repro.obs.report import run_metadata
from repro.obs.tracing import Tracer

#: Dedicated always-on tracer for benchmark timing: the harness must
#: measure even when process-wide observability is disabled (indeed the
#: acceptance run times the codec *with* ``repro.obs.OBS`` off), so it
#: does not share the global tracer's enable switch.
_BENCH_TRACER = Tracer(enabled=True)


@dataclass(frozen=True)
class BenchCase:
    """One fast-vs-reference measurement."""

    name: str
    unit: str  # what one "unit" is: stream, word, bit
    units_per_run: float
    reference_seconds: float
    fast_seconds: float

    @property
    def speedup(self) -> float:
        if self.fast_seconds == 0:
            return float("inf")
        return self.reference_seconds / self.fast_seconds

    @property
    def fast_per_second(self) -> float:
        if self.fast_seconds == 0:
            return float("inf")
        return self.units_per_run / self.fast_seconds

    @property
    def reference_per_second(self) -> float:
        if self.reference_seconds == 0:
            return float("inf")
        return self.units_per_run / self.reference_seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "units_per_run": self.units_per_run,
            "reference_seconds": self.reference_seconds,
            "fast_seconds": self.fast_seconds,
            "reference_per_second": self.reference_per_second,
            "fast_per_second": self.fast_per_second,
            "speedup": self.speedup,
        }


@dataclass(frozen=True)
class BenchStage:
    """One production stage timed on its own, with no reference side."""

    name: str
    unit: str
    units_per_run: float
    seconds: float

    @property
    def per_second(self) -> float:
        if self.seconds == 0:
            return float("inf")
        return self.units_per_run / self.seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "units_per_run": self.units_per_run,
            "seconds": self.seconds,
            "per_second": self.per_second,
        }


@dataclass
class BenchReport:
    """All cases of one harness run plus the run configuration."""

    config: dict
    cases: list[BenchCase]
    stages: list[BenchStage] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float:
        if not self.cases:
            return 1.0
        return math.exp(
            sum(math.log(case.speedup) for case in self.cases)
            / len(self.cases)
        )

    def case(self, name: str) -> BenchCase:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(f"no benchmark case named {name!r}")

    def to_dict(self) -> dict:
        out = {
            "generated_by": "repro.pipeline.benchmark",
            "config": self.config,
            "cases": [case.to_dict() for case in self.cases],
            "geomean_speedup": self.geomean_speedup,
        }
        if self.stages:
            out["stages"] = [stage.to_dict() for stage in self.stages]
        return out

    def write(self, path: str | Path) -> Path:
        from repro.runtime import atomic_write_text

        path = Path(path)
        # Atomic: a crash mid-write never leaves a truncated report.
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        header = (
            f"{'case':<24} {'ref s':>10} {'fast s':>10} "
            f"{'fast rate':>16} {'speedup':>8}"
        )
        lines = [header, "-" * len(header)]
        for case in self.cases:
            rate = f"{case.fast_per_second:,.0f} {case.unit}/s"
            lines.append(
                f"{case.name:<24} {case.reference_seconds:>10.5f} "
                f"{case.fast_seconds:>10.5f} {rate:>16} "
                f"{case.speedup:>7.1f}x"
            )
        lines.append(f"geomean speedup: {self.geomean_speedup:.1f}x")
        if self.stages:
            lines.append("")
            lines.append(f"{'stage':<30} {'s':>10} {'rate':>24}")
            for stage in self.stages:
                rate = f"{stage.per_second:,.0f} {stage.unit}/s"
                lines.append(
                    f"{stage.name:<30} {stage.seconds:>10.5f} {rate:>24}"
                )
        return "\n".join(lines)


def _best_time(
    fn: Callable[[], object], repeats: int, label: str = "bench.run"
) -> float:
    """Minimum wall time over ``repeats`` runs (the standard noise
    filter for throughput benchmarks), measured through obs spans so
    every individual repetition lands in the benchmark trace."""
    best = float("inf")
    for repeat in range(max(1, repeats)):
        with _BENCH_TRACER.span(label, repeat=repeat) as span:
            fn()
        best = min(best, span.duration)
    return best


def _trace_decode_case(
    block_size: int, repeats: int, workload_name: str = "conv2d"
) -> BenchCase:
    """Full ``decode_trace`` over a workload image: the workload's hot
    basic blocks encoded and patched into the program image exactly as
    :class:`~repro.pipeline.flow.EncodingFlow` deploys them, then the
    *actual* simulator fetch trace replayed through the decoder.  The
    reference is the same engine's per-fetch :meth:`FetchDecoder.fetch`
    walk; the bulk path's per-trace block
    memoization is in play, as it is in production, because a real
    trace re-fetches its hot loops."""
    from repro.cfg.graph import ControlFlowGraph
    from repro.cfg.hotspot import select_hot_blocks
    from repro.cfg.loops import find_natural_loops
    from repro.cfg.profile import profile_trace
    from repro.core.program_codec import encode_basic_blocks
    from repro.hw.bbit import BasicBlockIdentificationTable, BBITEntry
    from repro.hw.fetch_decoder import FetchDecoder
    from repro.hw.tt import TransformationTable
    from repro.sim.cpu import run_program
    from repro.workloads.registry import build_workload

    program = build_workload(workload_name).assemble()
    _cpu, trace = run_program(program)
    cfg = ControlFlowGraph.build(program)
    profile = profile_trace(cfg, trace)
    plan = select_hot_blocks(
        profile, block_size, loops=find_natural_loops(cfg)
    )
    tt = TransformationTable(max(1, plan.tt_entries_used), parity=True)
    bbit = BasicBlockIdentificationTable(
        max(1, len(plan.selected)), parity=True
    )
    image = list(program.words)
    encoded_region: set[int] = set()
    lengths = {
        start: plan.encoded_length(start, len(cfg.blocks[start]))
        for start in plan.selected
    }
    encodings = encode_basic_blocks(
        [cfg.blocks[start].words[: lengths[start]] for start in plan.selected],
        block_size,
    )
    for start, encoding in zip(plan.selected, encodings):
        length = lengths[start]
        bbit.install(
            BBITEntry(
                pc=start,
                tt_index=tt.allocate(encoding),
                num_instructions=length,
            )
        )
        first = program.index_of(start)
        for offset, word in enumerate(encoding.encoded_words):
            image[first + offset] = word
        encoded_region.update(range(start, start + 4 * length, 4))

    base = program.text_base
    fetches = list(trace)

    def _decode(bulk: bool) -> list[int]:
        decoder = FetchDecoder(
            tt, bbit, block_size, encoded_region=encoded_region
        )
        if bulk:
            return decoder.decode_trace(
                fetches, lambda pc: image[(pc - base) >> 2]
            )
        return [decoder.fetch(pc, image[(pc - base) >> 2]) for pc in fetches]

    if _decode(True) != _decode(False):
        raise RuntimeError(
            "trace_decode: bulk bitplane walk diverged from the "
            "per-fetch walk"
        )
    return BenchCase(
        name="trace_decode",
        unit="words",
        units_per_run=len(fetches),
        reference_seconds=_best_time(
            lambda: _decode(False), repeats, "bench.trace_decode.reference"
        ),
        fast_seconds=_best_time(
            lambda: _decode(True), repeats, "bench.trace_decode.fast"
        ),
    )


def run_encoder_zoo_benchmarks(
    num_words: int = 20000,
    repeats: int = 3,
    seed: int = 1234,
) -> BenchReport:
    """Encoder-zoo timings on one region-shaped stream, per backend.

    The stream is what the per-region selector sees: a hot loop
    fetching a few distinct words ``num_words`` times
    (:func:`~repro.verify.generators.hot_word_stream`).  Each backend
    gets three stage rows — ``fit``, ``encode`` and ``decode``, the
    calls the selector makes for every candidate — and one case row
    timing the production count (``encoder.transitions``: encode, then
    count packed toggles) against the scheme's independent reference
    counter from the verify campaign.  Counts are cross-checked for
    equality, and the decode for a bit-exact round trip, before
    anything is timed.  Written to ``BENCH_encoders.json`` by ``repro
    bench --encoders``; no floor is asserted, the file tracks the
    per-backend cost across changes.
    """
    from repro.baselines.protocol import (
        make_encoder,
        reference_transitions,
        registered_schemes,
    )
    from repro.verify.generators import hot_word_stream

    words = hot_word_stream(random.Random(f"bench:{seed}"), num_words)
    cases: list[BenchCase] = []
    stages: list[BenchStage] = []
    for scheme in registered_schemes():
        name = f"encoder_{scheme.replace('-', '_')}"
        encoder = make_encoder(scheme).fit(words)
        stream = encoder.encode(words)
        if encoder.decode(stream) != words:
            raise RuntimeError(f"{name}: decode did not restore the words")
        if stream.transitions() != reference_transitions(encoder, words):
            raise RuntimeError(
                f"{name}: fast transition count diverged from "
                "the reference counter"
            )
        for stage, fn in (
            ("fit", lambda: make_encoder(scheme).fit(words)),
            ("encode", lambda: encoder.encode(words)),
            ("decode", lambda: encoder.decode(stream)),
        ):
            stages.append(
                BenchStage(
                    name=f"{name}_{stage}",
                    unit="words",
                    units_per_run=len(words),
                    seconds=_best_time(fn, repeats, f"bench.{name}.{stage}"),
                )
            )
        cases.append(
            BenchCase(
                name=name,
                unit="words",
                units_per_run=len(words),
                reference_seconds=_best_time(
                    lambda: reference_transitions(encoder, words),
                    repeats,
                    f"bench.{name}.reference",
                ),
                fast_seconds=_best_time(
                    lambda: encoder.transitions(words),
                    repeats,
                    f"bench.{name}.fast",
                ),
            )
        )

    meta = run_metadata(command="repro bench --encoders", seed=seed)
    config = {
        "num_words": num_words,
        "repeats": repeats,
        "seed": seed,
        "schemes": list(registered_schemes()),
        "python": meta["python"],
        "platform": meta["platform"],
        "git_sha": meta["git_sha"],
        "timestamp": meta["timestamp"],
        "timestamp_unix": meta["timestamp_unix"],
        "run_id": _BENCH_TRACER.run_id,
    }
    return BenchReport(config=config, cases=cases, stages=stages)


def run_codec_benchmarks(
    stream_length: int = 5000,
    num_words: int = 64,
    block_size: int = 5,
    repeats: int = 3,
    seed: int = 1234,
) -> BenchReport:
    """Run the full fast-vs-reference suite and return the report."""
    rng = random.Random(seed)
    stream = [rng.randint(0, 1) for _ in range(stream_length)]
    words = [rng.getrandbits(32) for _ in range(num_words)]
    cases: list[BenchCase] = []

    def _stream_case(name: str, strategy: str) -> None:
        fast = StreamEncoder(block_size, strategy=strategy)
        reference = StreamEncoder(
            block_size, strategy=strategy, use_codebook=False
        )
        fast_result = fast.encode(stream)  # also warms the codebook
        if fast_result != reference.encode(stream):
            raise RuntimeError(
                f"{name}: fast path diverged from the reference encoder"
            )
        cases.append(
            BenchCase(
                name=name,
                unit="streams",
                units_per_run=1,
                reference_seconds=_best_time(
                    lambda: reference.encode(stream),
                    repeats,
                    f"bench.{name}.reference",
                ),
                fast_seconds=_best_time(
                    lambda: fast.encode(stream), repeats, f"bench.{name}.fast"
                ),
            )
        )

    _stream_case("stream_encode_greedy", "greedy")
    _stream_case("stream_encode_optimal", "optimal")
    _stream_case("stream_encode_disjoint", "disjoint")

    encoding = encode_basic_block(words, block_size)
    if encoding != encode_basic_block(words, block_size, use_codebook=False):
        raise RuntimeError(
            "block_encode: fast path diverged from the reference encoder"
        )
    cases.append(
        BenchCase(
            name="block_encode_greedy",
            unit="words",
            units_per_run=num_words,
            reference_seconds=_best_time(
                lambda: encode_basic_block(
                    words, block_size, use_codebook=False
                ),
                repeats,
                "bench.block_encode_greedy.reference",
            ),
            fast_seconds=_best_time(
                lambda: encode_basic_block(words, block_size),
                repeats,
                "bench.block_encode_greedy.fast",
            ),
        )
    )

    stream_encoding = StreamEncoder(block_size).encode(stream)
    plan = stream_encoding.transformations()
    stored = list(stream_encoding.encoded)
    if decode_with_plan(stored, block_size, plan) != decode_bit_serial(
        stored, block_size, plan
    ):
        raise RuntimeError(
            "decode_with_plan: bitplane decode diverged from the "
            "bit-serial oracle"
        )
    cases.append(
        BenchCase(
            name="stream_decode_plan",
            unit="bits",
            units_per_run=stream_length,
            reference_seconds=_best_time(
                lambda: decode_bit_serial(stored, block_size, plan),
                repeats,
                "bench.stream_decode_plan.reference",
            ),
            fast_seconds=_best_time(
                lambda: decode_with_plan(stored, block_size, plan),
                repeats,
                "bench.stream_decode_plan.fast",
            ),
        )
    )

    if decode_basic_block(encoding) != decode_basic_block_bit_serial(
        encoding
    ):
        raise RuntimeError(
            "block_decode: bitplane decode diverged from the bit-serial "
            "oracle"
        )
    cases.append(
        BenchCase(
            name="block_decode",
            unit="words",
            units_per_run=num_words,
            reference_seconds=_best_time(
                lambda: decode_basic_block_bit_serial(encoding),
                repeats,
                "bench.block_decode.reference",
            ),
            fast_seconds=_best_time(
                lambda: decode_basic_block(encoding),
                repeats,
                "bench.block_decode.fast",
            ),
        )
    )

    # The stream entry point (which also checks the segment layout)
    # against the bit-serial oracle on the same encoded stream.
    def _serial_stream() -> list[int]:
        return decode_bit_serial(
            stream_encoding.encoded,
            block_size,
            plan,
            stream_encoding.overlapped,
        )

    decoded_bitplane = decode_stream(stream_encoding)
    if decoded_bitplane != stream or decoded_bitplane != _serial_stream():
        raise RuntimeError(
            "stream_decode_serial: bitplane decode diverged from the "
            "bit-serial oracle"
        )
    cases.append(
        BenchCase(
            name="stream_decode_serial",
            unit="bits",
            units_per_run=stream_length,
            reference_seconds=_best_time(
                _serial_stream,
                repeats,
                "bench.stream_decode_serial.reference",
            ),
            fast_seconds=_best_time(
                lambda: decode_stream(stream_encoding),
                repeats,
                "bench.stream_decode_serial.fast",
            ),
        )
    )

    cases.append(_trace_decode_case(block_size, repeats))

    # Provenance stamp (git SHA, platform, timestamp, run id) so
    # BENCH_codec.json files are comparable across PRs and machines.
    meta = run_metadata(command="repro bench", seed=seed)
    config = {
        "stream_length": stream_length,
        "num_words": num_words,
        "block_size": block_size,
        "repeats": repeats,
        "seed": seed,
        "python": meta["python"],
        "platform": meta["platform"],
        "git_sha": meta["git_sha"],
        "timestamp": meta["timestamp"],
        "timestamp_unix": meta["timestamp_unix"],
        "run_id": _BENCH_TRACER.run_id,
    }
    return BenchReport(config=config, cases=cases)


def workload_encode_benchmark(
    workload_name: str = "mmul",
    block_size: int = 5,
    parallel: int | None = None,
    repeats: int = 1,
) -> dict:
    """Whole-program encode timing on a real workload (serial vs
    ``parallel=N`` process fan-out).  Heavier than the codec cases;
    not part of the default report."""
    from repro.pipeline.flow import EncodingFlow
    from repro.sim.cpu import run_program
    from repro.workloads.registry import build_workload

    workload = build_workload(workload_name)
    program = workload.assemble()
    _cpu, trace = run_program(program)
    serial = _best_time(
        lambda: EncodingFlow(block_size=block_size, verify_decode=False).run(
            program, trace, workload_name
        ),
        repeats,
    )
    result = {"workload": workload_name, "serial_seconds": serial}
    if parallel and parallel > 1:
        result["parallel_workers"] = parallel
        result["parallel_seconds"] = _best_time(
            lambda: EncodingFlow(
                block_size=block_size,
                verify_decode=False,
                parallel=parallel,
            ).run(program, trace, workload_name),
            repeats,
        )
    return result
