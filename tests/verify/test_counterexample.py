"""Shrinking and replay of recorded counterexamples."""

import pytest

from tests.strategies import seeded_stream

from repro.errors import VerifyError
from repro.verify.counterexample import (
    RECORD_VERSION,
    make_record,
    replay_counterexample,
    shrink_stream,
    shrink_words,
)


class TestShrinkStream:
    def test_minimises_to_the_failure_kernel(self):
        # "Fails" iff the stream holds at least four 1-bits: the
        # locally minimal failing input is exactly [1, 1, 1, 1].
        stream = seeded_stream(("shrink", 1), 30, bias=0.4)
        assert sum(stream) >= 4
        shrunk = shrink_stream(
            stream, lambda bits: sum(bits) >= 4, budget=5000
        )
        assert shrunk == [1, 1, 1, 1]

    def test_respects_the_budget(self):
        calls = []

        def fails(bits):
            calls.append(1)
            return sum(bits) >= 4

        shrink_stream([1] * 50, fails, budget=10)
        assert len(calls) <= 10

    def test_never_returns_a_passing_input(self):
        stream = [0, 1] * 30
        fails = lambda bits: bits.count(1) >= 3
        assert fails(shrink_stream(stream, fails))


class TestShrinkWords:
    def test_drops_words_and_clears_bits(self):
        # "Fails" iff any word has bit 5 set: minimal form is [32].
        words = [0xFFFF_FFFF, 0x20, 0x1F, 0x7000_0021]
        fails = lambda ws: any(w & 0x20 for w in ws)
        assert shrink_words(words, fails) == [0x20]

    def test_never_returns_a_passing_input(self):
        words = [0xABCDEF01, 0x12345678]
        fails = lambda ws: any(w % 2 for w in ws)
        assert fails(shrink_words(words, fails))


class TestRecords:
    def test_make_record_is_self_contained(self):
        record = make_record(
            "stream",
            "7:stream:3",
            {"k": 4, "strategy": "greedy"},
            [1, 0, 1],
            {"kind": "bitplane_decode_wrong"},
            ("bitplane-scan",),
        )
        assert record["version"] == RECORD_VERSION
        assert record["mutations"] == ["bitplane-scan"]
        assert record["input"] == [1, 0, 1]

    def test_replay_of_a_healthy_input_returns_none(self):
        record = make_record(
            "stream",
            "7:stream:0",
            {"k": 4, "strategy": "greedy"},
            seeded_stream(("replay", 1), 40),
            {"kind": "stale"},
            (),
        )
        assert replay_counterexample(record) is None

    def test_replay_reproduces_a_genuine_divergence(self):
        # An unknown fault name makes check_tables fail without any
        # process mutation — a divergence replay can actually observe.
        record = make_record(
            "tables",
            "7:tables:3",
            {"k": 4, "fault": "gamma_ray", "flip_seed": "s"},
            [[1, 2, 3]],
            {"kind": "unknown_table_fault"},
            (),
        )
        observed = replay_counterexample(record)
        assert observed is not None
        assert observed["kind"] == "unknown_table_fault"

    def test_replay_sweeps_need_only_params(self):
        for kind in ("sweep_codebook", "sweep_tau", "sweep_boundary"):
            record = make_record(kind, "s", {"k": 3}, None, {"kind": "x"}, ())
            assert replay_counterexample(record) is None

    def test_unknown_kind_raises(self):
        record = make_record("tarot", "s", {}, None, {"kind": "x"}, ())
        with pytest.raises(VerifyError):
            replay_counterexample(record)

    def test_malformed_record_raises_verify_error(self):
        # Missing the "k" parameter: KeyError surfaces as VerifyError.
        record = make_record(
            "stream", "s", {"strategy": "greedy"}, [1, 0], {"kind": "x"}, ()
        )
        with pytest.raises(VerifyError):
            replay_counterexample(record)
