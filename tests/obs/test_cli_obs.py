"""End-to-end: ``repro encode --metrics`` -> RUN_report.json -> readers.

This file carries the PR's acceptance checks: the seeded encode run
must produce a schema-valid report with non-zero encode-phase spans,
codec counters and decoder table-lookup counters, and the ``repro
metrics --check`` gate must pass on it (and fail when a family is
removed).
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.report import (
    load_run_report,
    missing_families,
    validate_run_report,
)


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Commands flip the process-wide switch; always restore it."""
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def encode_report(tmp_path_factory):
    """One instrumented ``repro encode --workload fir --metrics`` run."""
    path = tmp_path_factory.mktemp("obs") / "RUN_report.json"
    code = main(
        [
            "encode",
            "--workload",
            "fir",
            "--metrics",
            "--report",
            str(path),
        ]
    )
    obs.disable()
    obs.reset()
    assert code == 0
    return path


class TestEncodeReport:
    def test_report_is_schema_valid(self, encode_report):
        data = load_run_report(encode_report)
        assert validate_run_report(data) == []
        assert data["meta"]["command"] == "repro encode fir"
        assert data["meta"]["git_sha"]

    def test_all_expected_families_present(self, encode_report):
        assert missing_families(load_run_report(encode_report)) == []

    def test_encode_phase_spans_nonzero(self, encode_report):
        by_name = load_run_report(encode_report)["trace"]["by_name"]
        for phase in ("flow.run", "flow.encode", "flow.deploy"):
            assert by_name[phase]["count"] >= 1
            assert by_name[phase]["total_s"] > 0

    def test_codec_and_decoder_counters_nonzero(self, encode_report):
        metrics = load_run_report(encode_report)["metrics"]

        def total(name):
            return sum(
                s["value"] for s in metrics[name]["series"]
            )

        assert total("codec.blocks_encoded") > 0
        assert total("codec.words_encoded") > 0
        assert total("decoder.tt_reads") > 0
        assert total("decoder.bbit_lookups") > 0
        assert total("sim.fetches") > 0

    def test_sim_block_runs_reported(self, encode_report):
        # one dispatch per basic-block run: more than none, fewer than
        # the fetches, and the sim.run span carries the same count
        data = load_run_report(encode_report)

        def total(name):
            return sum(s["value"] for s in data["metrics"][name]["series"])

        runs = total("sim.block_runs")
        assert 0 < runs < total("sim.fetches")
        spans = [s for s in data["trace"]["spans"] if s["name"] == "sim.run"]
        assert sum(s["attrs"]["block_runs"] for s in spans) == runs

    def test_trace_histogram_reused_within_flow(self, encode_report):
        # profile, baseline count and encoded count share one trace
        # histogram: at most one build, at least two reuses.
        series = load_run_report(encode_report)["metrics"][
            "bus.trace_histograms"
        ]["series"]
        by_outcome = {s["labels"]["outcome"]: s["value"] for s in series}
        assert by_outcome.get("built", 0) <= 1
        assert by_outcome["reused"] >= 2

    def test_spans_nest_flow_over_encode(self, encode_report):
        spans = load_run_report(encode_report)["trace"]["spans"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["flow.encode"]["parent_id"] == (
            by_name["flow.run"]["span_id"]
        )


class TestMetricsCommand:
    def test_check_passes_on_real_report(self, encode_report, capsys):
        assert main(["metrics", "--report", str(encode_report)]) == 0
        assert (
            main(["metrics", "--report", str(encode_report), "--check"])
            == 0
        )
        out = capsys.readouterr().out
        assert "codec.blocks_encoded" in out
        assert "all expected encode metric families present" in out

    def test_check_fails_when_family_missing(
        self, encode_report, tmp_path, capsys
    ):
        data = load_run_report(encode_report)
        del data["metrics"]["decoder.tt_reads"]
        crippled = tmp_path / "crippled.json"
        crippled.write_text(json.dumps(data))
        assert main(["metrics", "--report", str(crippled), "--check"]) == 1
        assert "decoder.tt_reads" in capsys.readouterr().err

    def test_json_mode_round_trips(self, encode_report, capsys):
        assert main(["metrics", "--report", str(encode_report), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "codec.blocks_encoded" in parsed

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["metrics", "--report", str(tmp_path / "nope.json")]) == 2
        assert "no run report" in capsys.readouterr().err

    def test_invalid_report_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        assert main(["metrics", "--report", str(bad)]) == 2
        assert "invalid report" in capsys.readouterr().err


class TestTraceCommand:
    def test_table_and_top(self, encode_report, capsys):
        assert main(["trace", "--report", str(encode_report), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "flow.run" in out
        assert "slowest 3 spans" in out

    def test_json_mode(self, encode_report, capsys):
        assert main(["trace", "--report", str(encode_report), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["spans_recorded"] >= 1


class TestEncodeArguments:
    def test_workload_required(self, capsys):
        assert main(["encode"]) == 2
        assert "workload is required" in capsys.readouterr().err

    def test_conflicting_workloads_rejected(self, capsys):
        assert main(["encode", "mmul", "--workload", "fft"]) == 2
        assert "conflicting workloads" in capsys.readouterr().err

    def test_positional_still_works(self, capsys):
        assert main(["encode", "fir"]) == 0
        assert "FIR" in capsys.readouterr().out


class TestDisabledIsInert:
    def test_plain_encode_records_nothing(self, capsys):
        obs.disable()
        obs.reset()
        assert main(["encode", "fir"]) == 0
        assert obs.OBS.registry.family_names() == []
        assert obs.OBS.tracer.spans == []
        assert "wrote" not in capsys.readouterr().out
