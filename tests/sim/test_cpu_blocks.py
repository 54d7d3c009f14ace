"""Block-run dispatch against the per-instruction oracle.

``Cpu.run`` executes one basic-block run per dispatch.  The oracle is
``Cpu.step()`` in a loop that records ``cpu.pc`` before each step: one
instruction at a time, exactly the paper's in-order fetch model.  The
two must agree on the fetch trace and on every piece of architectural
state, on whole programs and on the edge cases where a run is cut
short (step guard, faults, indirect jumps into a block).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.basic_blocks import find_leaders
from repro.isa.assembler import assemble
from repro.minicc.kernels import COMPILED_BUILDERS, compiled_workload
from repro.sim.cpu import Cpu, CpuError
from repro.workloads.registry import (
    BENCHMARK_ORDER,
    EXTENDED_WORKLOADS,
    build_workload,
)
from tests.strategies import generate_program

#: Registry workloads at quarter size (as the benchmark's ``quarter``).
QUARTER = {
    "mmul": {"n": 6},
    "sor": {"n": 8},
    "ej": {"n": 8},
    "fft": {"n": 64},
    "tri": {"n": 32},
    "lu": {"n": 8},
    "fir": {"samples": 48},
    "iir": {"samples": 64},
    "conv2d": {"n": 6},
}

#: Compiled kernels, small enough for the one-step-at-a-time oracle.
MINICC_SMALL = {
    "mmul": {"n": 6},
    "sor": {"n": 8, "sweeps": 2},
    "ej": {"n": 8, "sweeps": 2},
    "fft": {"n": 16},
    "tri": {"n": 16, "sweeps": 2},
    "lu": {"n": 8},
}


def oracle(program, max_steps: int | None = None):
    """Step one instruction at a time, recording each fetched PC.
    Stops after ``max_steps`` instructions, or on the exception an
    instruction raises (its PC is already in the trace)."""
    cpu = Cpu(program)
    trace: list[int] = []
    while cpu.running and (max_steps is None or cpu.steps < max_steps):
        trace.append(cpu.pc)
        cpu.step()
    return cpu, trace


def state(cpu: Cpu) -> dict:
    """Everything a run can change, in comparable form."""
    return {
        "regs": list(cpu.regs),
        "fregs": [repr(value) for value in cpu.fregs],
        "hi": cpu.hi,
        "lo": cpu.lo,
        "fcc": cpu.fcc,
        "output": list(cpu.output),
        "pc": cpu.pc,
        "running": cpu.running,
        "pages": {n: bytes(p) for n, p in cpu.memory._pages.items()},
    }


def assert_matches_oracle(program) -> Cpu:
    expected_cpu, expected_trace = oracle(program)
    cpu = Cpu(program)
    trace: list[int] = []
    steps = cpu.run(trace=trace)
    assert trace == expected_trace
    assert steps == cpu.steps == expected_cpu.steps == len(trace)
    assert state(cpu) == state(expected_cpu)
    assert 0 < cpu.block_runs <= cpu.steps
    return cpu


@pytest.mark.parametrize("name", BENCHMARK_ORDER + EXTENDED_WORKLOADS)
def test_registry_workload_matches_oracle(name):
    workload = build_workload(name, **QUARTER[name])
    cpu = assert_matches_oracle(workload.assemble())
    if workload.verify is not None:
        workload.verify(cpu)


@pytest.mark.parametrize("name", sorted(COMPILED_BUILDERS))
def test_minicc_kernel_matches_oracle(name):
    kernel, verify = compiled_workload(name, **MINICC_SMALL[name])
    verify(assert_matches_oracle(kernel.assemble()))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_generated_programs_match_oracle(seed):
    assert_matches_oracle(assemble(generate_program(seed)))


def test_untraced_run_reaches_the_same_state():
    program = build_workload("fir", **QUARTER["fir"]).assemble()
    expected_cpu, _ = oracle(program)
    cpu = Cpu(program)
    assert cpu.run() == expected_cpu.steps
    assert state(cpu) == state(expected_cpu)


# ---------------------------------------------------------------------------
# Edge cases: runs cut short
# ---------------------------------------------------------------------------

#: One long straight-line block (the loop body) entered ten times.
STRAIGHT = """
.text
main:   li $t0, 10
loop:   addiu $t1, $t1, 1
        addiu $t2, $t2, 2
        addiu $t3, $t3, 3
        addiu $t4, $t4, 4
        addiu $t5, $t5, 5
        addiu $t0, $t0, -1
        bnez $t0, loop
        li $v0, 10
        syscall
"""


def test_step_guard_cuts_a_run_mid_block():
    program = assemble(STRAIGHT)
    loop = program.address_of("loop")
    mid_block_stops = 0
    for max_steps in range(1, 30):
        expected_cpu, expected_trace = oracle(program, max_steps)
        cpu = Cpu(program)
        trace: list[int] = []
        with pytest.raises(CpuError, match=f"exceeded {max_steps} steps"):
            cpu.run(max_steps=max_steps, trace=trace)
        assert trace == expected_trace
        assert len(trace) == max_steps
        assert state(cpu) == state(expected_cpu)
        mid_block_stops += loop < cpu.pc < loop + 24
    assert mid_block_stops >= 20


def test_halting_on_the_last_allowed_step_does_not_raise():
    program = assemble(STRAIGHT)
    expected_cpu, expected_trace = oracle(program)
    total = expected_cpu.steps
    cpu = Cpu(program)
    trace: list[int] = []
    assert cpu.run(max_steps=total, trace=trace) == total
    assert trace == expected_trace
    assert not cpu.running
    with pytest.raises(CpuError, match="exceeded"):
        Cpu(program).run(max_steps=total - 1)


def test_run_resumes_mid_block_after_the_step_guard():
    program = assemble(STRAIGHT)
    expected_cpu, expected_trace = oracle(program)
    cpu = Cpu(program)
    trace: list[int] = []
    with pytest.raises(CpuError, match="exceeded"):
        cpu.run(max_steps=4, trace=trace)
    assert cpu.pc == program.address_of("loop") + 12  # mid-block
    with pytest.raises(CpuError, match="exceeded"):
        cpu.run(max_steps=13, trace=trace)
    rest = cpu.run(trace=trace)
    assert 4 + 13 + rest == expected_cpu.steps
    assert trace == expected_trace
    assert state(cpu) == state(expected_cpu)


def test_jr_into_the_middle_of_a_block():
    source = """
    .text
    main:   la $t9, mid
            jal body
            jr $t9
    body:   addiu $t1, $t1, 1
    mid:    addiu $t2, $t2, 1
            addiu $t3, $t3, 1
            bnez $s0, done
            li $s0, 1
            jr $ra
    done:   li $v0, 10
            syscall
    """
    program = assemble(source)
    mid = program.address_of("mid")
    assert mid not in find_leaders(program)
    cpu = assert_matches_oracle(program)
    # the mid-block entry got its own, shorter run
    assert cpu._runs[mid][1] == range(mid, program.address_of("done") - 8, 4)


def test_jr_zero_faults_at_dispatch():
    program = assemble(".text\nmain: li $t0, 1\njr $zero\n")
    expected_cpu, expected_trace = oracle(program, max_steps=2)
    cpu = Cpu(program)
    trace: list[int] = []
    with pytest.raises(CpuError, match="PC out of text: 0x00000000"):
        cpu.run(max_steps=10, trace=trace)
    assert trace == expected_trace
    assert cpu.pc == 0


def test_misaligned_pc_faults_at_dispatch():
    program = assemble(".text\nmain: la $t0, main\naddiu $t0, $t0, 2\njr $t0\n")
    cpu = Cpu(program)
    with pytest.raises(CpuError, match="PC out of text"):
        cpu.run(max_steps=10)
    assert cpu.pc == program.entry + 2


def test_fault_mid_block_ends_the_trace_at_the_faulting_pc():
    source = """
    .text
    main:   li $t0, 1
            mtc1 $t0, $f2
            mtc1 $zero, $f4
            addiu $t1, $t1, 7
    bad:    div.d $f6, $f2, $f4
            addiu $t2, $t2, 1
            li $v0, 10
            syscall
    """
    program = assemble(source)
    bad = program.address_of("bad")
    expected_cpu = Cpu(program)
    expected_trace: list[int] = []
    with pytest.raises(ZeroDivisionError):
        while expected_cpu.running:
            expected_trace.append(expected_cpu.pc)
            expected_cpu.step()
    cpu = Cpu(program)
    trace: list[int] = []
    with pytest.raises(ZeroDivisionError):
        cpu.run(trace=trace)
    assert trace == expected_trace
    assert trace[-1] == cpu.pc == bad
    assert state(cpu) == state(expected_cpu)
