"""Encoder-zoo timing harness.

Runs :func:`repro.pipeline.benchmark.run_encoder_zoo_benchmarks` and
writes ``BENCH_encoders.json`` at the repo root so per-backend costs
are tracked across changes.  The stream is region-shaped (a hot
alphabet fetched 20000 times), and every backend gets ``fit``,
``encode`` and ``decode`` stage rows — what the per-region selector
pays per candidate — plus the fast-count vs reference-counter case.
There is no speedup floor: the harness's value is the trajectory plus
its built-in checks (a decode mismatch or a count divergence raises
before timing).
"""

from pathlib import Path

from repro.baselines.protocol import registered_schemes
from repro.pipeline.benchmark import run_encoder_zoo_benchmarks

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_encoder_zoo_throughput_report():
    report = run_encoder_zoo_benchmarks(repeats=3)
    print()
    print(report.format_table())

    path = report.write(REPO_ROOT / "BENCH_encoders.json")
    assert path.exists()
    assert report.config["num_words"] == 20000

    names = [
        f"encoder_{scheme.replace('-', '_')}" for scheme in registered_schemes()
    ]
    assert {case.name for case in report.cases} == set(names)
    for case in report.cases:
        assert case.units_per_run == 20000
        assert case.fast_per_second > 0
        assert case.reference_per_second > 0

    assert [stage.name for stage in report.stages] == [
        f"{name}_{stage}"
        for name in names
        for stage in ("fit", "encode", "decode")
    ]
    for stage in report.stages:
        assert stage.units_per_run == 20000
        assert stage.per_second > 0
