"""Tests for loop detection, profiling and hot-spot selection."""

import pytest

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.hotspot import select_hot_blocks
from repro.cfg.loops import (
    blocks_in_any_loop,
    find_back_edges,
    find_natural_loops,
    innermost_loops,
    loop_nesting_depths,
)
from repro.cfg.profile import profile_trace
from repro.core.program_codec import tt_entries_required
from repro.isa.assembler import assemble
from repro.sim.cpu import run_program

NESTED_LOOPS = """
        .text
main:   li $s0, 4
outer:  li $s1, 8
inner:  addiu $s1, $s1, -1
        addu  $t0, $t0, $s1
        bnez $s1, inner
        addiu $s0, $s0, -1
        bnez $s0, outer
        li $v0, 10
        syscall
"""


@pytest.fixture(scope="module")
def setup():
    program = assemble(NESTED_LOOPS)
    cfg = ControlFlowGraph.build(program)
    cpu, trace = run_program(program)
    profile = profile_trace(cfg, trace)
    loops = find_natural_loops(cfg)
    return program, cfg, trace, profile, loops


class TestLoopDetection:
    def test_two_loops_found(self, setup):
        program, cfg, trace, profile, loops = setup
        assert len(loops) == 2
        headers = {loop.header for loop in loops}
        assert headers == {
            program.address_of("outer"),
            program.address_of("inner"),
        }

    def test_nesting(self, setup):
        program, cfg, trace, profile, loops = setup
        inner = next(
            l for l in loops if l.header == program.address_of("inner")
        )
        outer = next(
            l for l in loops if l.header == program.address_of("outer")
        )
        assert inner.is_nested_in(outer)
        assert not outer.is_nested_in(inner)
        depths = loop_nesting_depths(loops)
        assert depths[inner.header] == 2
        assert depths[outer.header] == 1

    def test_innermost(self, setup):
        program, cfg, trace, profile, loops = setup
        (innermost,) = innermost_loops(loops)
        assert innermost.header == program.address_of("inner")

    def test_back_edges(self, setup):
        program, cfg, trace, profile, loops = setup
        back = find_back_edges(cfg)
        targets = {v for _, v in back}
        assert targets == {
            program.address_of("outer"),
            program.address_of("inner"),
        }

    def test_straight_line_has_no_loops(self):
        program = assemble(".text\nmain: nop\nli $v0, 10\nsyscall\n")
        cfg = ControlFlowGraph.build(program)
        assert find_natural_loops(cfg) == []


class TestProfile:
    def test_entry_counts(self, setup):
        program, cfg, trace, profile, loops = setup
        inner = program.address_of("inner")
        assert profile.entry_counts[inner] == 4 * 8

    def test_fetch_counts(self, setup):
        program, cfg, trace, profile, loops = setup
        inner = program.address_of("inner")
        block = cfg.blocks[inner]
        assert profile.fetch_counts[inner] == 4 * 8 * len(block)

    def test_total(self, setup):
        program, cfg, trace, profile, loops = setup
        assert profile.total_fetches == len(trace)
        assert sum(profile.fetch_counts.values()) == len(trace)

    def test_hottest_is_inner_loop(self, setup):
        program, cfg, trace, profile, loops = setup
        assert profile.hottest(1) == [program.address_of("inner")]

    def test_coverage(self, setup):
        program, cfg, trace, profile, loops = setup
        all_blocks = list(cfg.blocks)
        assert profile.coverage_of(all_blocks) == pytest.approx(1.0)
        assert profile.coverage_of([]) == 0.0

    def test_loop_weight_dominated_by_inner(self, setup):
        program, cfg, trace, profile, loops = setup
        inner = next(
            l for l in loops if l.header == program.address_of("inner")
        )
        assert profile.loop_weight(inner) / profile.total_fetches > 0.5


class TestHotSpotSelection:
    def test_selects_loop_blocks_first(self, setup):
        program, cfg, trace, profile, loops = setup
        plan = select_hot_blocks(profile, block_size=5)
        assert program.address_of("inner") in plan.selected

    def test_respects_tt_capacity(self, setup):
        program, cfg, trace, profile, loops = setup
        plan = select_hot_blocks(profile, block_size=5, tt_capacity=1)
        assert plan.tt_entries_used <= 1
        used = sum(
            tt_entries_required(len(cfg.blocks[b]), 5) for b in plan.selected
        )
        assert used == plan.tt_entries_used

    def test_respects_bbit_capacity(self, setup):
        program, cfg, trace, profile, loops = setup
        plan = select_hot_blocks(
            profile, block_size=5, bbit_capacity=1, tt_capacity=100
        )
        assert len(plan.selected) <= 1

    def test_loops_only_flag(self, setup):
        program, cfg, trace, profile, loops = setup
        loose = select_hot_blocks(profile, block_size=5, loops_only=False)
        strict = select_hot_blocks(profile, block_size=5, loops_only=True)
        loop_blocks = blocks_in_any_loop(loops)
        assert all(b in loop_blocks for b in strict.selected)
        assert set(strict.selected) <= set(loose.selected)

    def test_small_blocks_skipped(self, setup):
        program, cfg, trace, profile, loops = setup
        plan = select_hot_blocks(
            profile, block_size=5, min_block_instructions=100
        )
        assert plan.selected == []
        assert plan.skipped_small

    def test_capacity_overflow_recorded(self, setup):
        program, cfg, trace, profile, loops = setup
        plan = select_hot_blocks(profile, block_size=5, tt_capacity=1)
        assert plan.skipped_capacity or len(plan.selected) >= 1
