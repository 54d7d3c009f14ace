"""Tests for the bus transition/energy model and the fetch tracer."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bitstream import hamming
from repro.isa.assembler import assemble
from repro.sim.bus import (
    BusModel,
    count_trace_transitions,
    image_with_patches,
    per_line_trace_transitions,
    trace_histogram,
)
from repro.sim.cpu import run_program
from repro.sim.tracer import FetchTrace


@pytest.fixture(scope="module")
def looped_program():
    return assemble(
        """
        .text
        main: li $t0, 4
        loop: addiu $t0, $t0, -1
        bnez $t0, loop
        li $v0, 10
        syscall
        """
    )


class TestTransitionCounting:
    def test_matches_manual_hamming(self, looped_program):
        cpu, trace = run_program(looped_program)
        words = [looped_program.word_at(a) for a in trace]
        expected = sum(hamming(a, b) for a, b in zip(words, words[1:]))
        assert count_trace_transitions(looped_program, trace) == expected

    def test_per_line_sums_to_total(self, looped_program):
        cpu, trace = run_program(looped_program)
        per_line = per_line_trace_transitions(looped_program, trace)
        assert len(per_line) == 32
        assert sum(per_line) == count_trace_transitions(looped_program, trace)

    def test_empty_and_single_traces(self, looped_program):
        assert count_trace_transitions(looped_program, []) == 0
        assert (
            count_trace_transitions(looped_program, [looped_program.entry])
            == 0
        )

    def test_constant_fetch_no_transitions(self, looped_program):
        pc = looped_program.entry
        assert count_trace_transitions(looped_program, [pc] * 10) == 0

    def test_custom_image(self, looped_program):
        cpu, trace = run_program(looped_program)
        # An all-equal image produces zero transitions.
        image = [0xAAAAAAAA] * len(looped_program.words)
        assert count_trace_transitions(looped_program, trace, image) == 0

    def test_bad_address_rejected(self, looped_program):
        with pytest.raises(ValueError):
            count_trace_transitions(looped_program, [0])

    @pytest.mark.parametrize(
        "count", [count_trace_transitions, per_line_trace_transitions]
    )
    def test_end_and_misaligned_addresses_rejected(self, looped_program, count):
        entry = looped_program.entry
        for bad in (looped_program.text_end, entry + 2):
            with pytest.raises(ValueError):
                count(looped_program, [entry, bad])


_WORD = st.one_of(st.sampled_from([0, 0xFFFFFFFF]), st.integers(0, 2**32 - 1))


class TestAgainstNaivePopcount:
    """Both counters against a per-pair popcount of the fetched words."""

    @given(
        image=st.lists(_WORD, min_size=5, max_size=5),
        slots=st.lists(st.integers(0, 4), max_size=40),
    )
    @example(image=[0, 0xFFFFFFFF, 0, 0xFFFFFFFF, 0], slots=[])
    @example(image=[0, 0xFFFFFFFF, 0, 0xFFFFFFFF, 0], slots=[1])
    @example(image=[0, 0xFFFFFFFF, 0, 0xFFFFFFFF, 0], slots=[0, 1])
    @settings(max_examples=200, deadline=None)
    def test_counts_match(self, looped_program, image, slots):
        assert len(image) == len(looped_program.words)
        trace = [looped_program.text_base + 4 * slot for slot in slots]
        fetched = [image[slot] for slot in slots]
        pairs = [a ^ b for a, b in zip(fetched, fetched[1:])]
        assert count_trace_transitions(looped_program, trace, image) == sum(
            bin(toggles).count("1") for toggles in pairs
        )
        assert per_line_trace_transitions(looped_program, trace, image) == [
            sum((toggles >> line) & 1 for toggles in pairs) for line in range(32)
        ]


def _naive_count(program, trace, image=None):
    words = program.words if image is None else image
    fetched = [words[(pc - program.text_base) >> 2] for pc in trace]
    return sum(hamming(a, b) for a, b in zip(fetched, fetched[1:]))


class TestTraceHistogramMemo:
    """The one-slot histogram memo is keyed by trace content."""

    def test_histogram_counts_pairs_and_fetches(self, looped_program):
        cpu, trace = run_program(looped_program)
        histogram = trace_histogram(trace)
        assert histogram.pairs == Counter(zip(trace, trace[1:]))
        assert (histogram.first, histogram.last) == (trace[0], trace[-1])
        assert histogram.fetch_counts() == Counter(trace)
        assert trace_histogram([]).fetch_counts() == Counter()

    def test_in_place_mutation_is_recounted(self, looped_program):
        cpu, trace = run_program(looped_program)
        trace = list(trace)
        first = count_trace_transitions(looped_program, trace)
        assert first == _naive_count(looped_program, trace)
        # Same list object, new content: an identity-keyed cache
        # would return the stale count.
        trace[1:3] = [looped_program.text_end - 4] * 2
        second = count_trace_transitions(looped_program, trace)
        assert second == _naive_count(looped_program, trace)
        assert second != first

    def test_interleaved_traces_keep_their_own_counts(self, looped_program):
        cpu, a = run_program(looped_program)
        base = looped_program.text_base
        b = [base + 4 * slot for slot in (0, 3, 1, 3, 2, 4, 0)]
        expected = {
            "a": _naive_count(looped_program, a),
            "b": _naive_count(looped_program, b),
        }
        assert expected["a"] != expected["b"]
        for name, trace in (("a", a), ("b", b), ("a", a), ("b", list(b))):
            assert count_trace_transitions(looped_program, trace) == (
                expected[name]
            )


class TestImagePatching:
    def test_patch(self, looped_program):
        base = looped_program.text_base
        image = image_with_patches(looped_program, {base + 4: 0xDEADBEEF})
        assert image[1] == 0xDEADBEEF
        assert image[0] == looped_program.words[0]

    def test_bad_patch_rejected(self, looped_program):
        with pytest.raises(ValueError):
            image_with_patches(looped_program, {0: 1})


class TestEnergyModel:
    def test_energy_proportional_to_transitions(self):
        model = BusModel()
        assert model.energy_joules(200) == pytest.approx(
            2 * model.energy_joules(100)
        )

    def test_offchip_costs_more(self):
        onchip = BusModel(line_capacitance=0.5e-12)
        offchip = BusModel(line_capacitance=20e-12)
        assert offchip.energy_joules(1000) > 10 * onchip.energy_joules(1000)

    def test_savings_percent(self):
        model = BusModel()
        assert model.savings_percent(200, 100) == 50.0
        assert model.savings_percent(0, 0) == 0.0

    def test_trace_energy(self, looped_program):
        cpu, trace = run_program(looped_program)
        model = BusModel()
        expected = model.energy_joules(
            count_trace_transitions(looped_program, trace)
        )
        assert model.trace_energy(looped_program, trace) == expected


class TestFetchTrace:
    def test_record(self, looped_program):
        trace = FetchTrace.record(looped_program)
        assert trace.addresses[0] == looped_program.entry
        assert len(trace) > 0

    def test_fetch_counts(self, looped_program):
        trace = FetchTrace.record(looped_program)
        loop = looped_program.address_of("loop")
        assert trace.fetch_counts()[loop] == 4

    def test_words_align_with_addresses(self, looped_program):
        trace = FetchTrace.record(looped_program)
        words = trace.words()
        assert len(words) == len(trace)
        assert words[0] == looped_program.word_at(trace.addresses[0])

    def test_edge_counts(self, looped_program):
        trace = FetchTrace.record(looped_program)
        loop = looped_program.address_of("loop")
        # back edge (bnez -> loop) taken 3 times
        assert trace.edge_counts()[(loop + 4, loop)] == 3

    def test_coverage_full(self, looped_program):
        trace = FetchTrace.record(looped_program)
        assert trace.coverage() == 1.0
