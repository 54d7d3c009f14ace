"""In-order functional CPU interpreter.

The paper's baseline is "a typical embedded processor front-end, which
fetches and executes instructions in order and one at a time"; this
interpreter models exactly that.  Instructions are pre-compiled into
Python closures once per program, and the closures of each basic block
are grouped into a *run*: the ops from an entry PC to the end of its
block (ends come from :func:`repro.cfg.basic_blocks.find_leaders`),
plus the ``range`` of their addresses.  :meth:`Cpu.run` then does one
table lookup, one ``trace.extend`` and one step update per executed
block, not per instruction, so multi-million-instruction workloads run
in seconds while the fetch trace stays the per-instruction PC list.

Architectural simplifications (documented in DESIGN.md): no branch
delay slots (``jal`` links to ``pc + 4``), and each FP register holds
one double-precision value.

System calls follow SPIM conventions: ``$v0`` selects the service
(1 = print int in ``$a0``, 3 = print double in ``$f12``, 4 = print
string at ``$a0``, 11 = print char, 10 = exit).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable

from repro.isa.assembler import STACK_TOP, Program
from repro.isa.instruction import Instruction
from repro.isa.registers import A0, GP, RA, SP, V0
from repro.sim.memory import Memory

MASK32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    return value - 0x100000000 if value & 0x80000000 else value


class CpuError(RuntimeError):
    """Raised for runtime faults (bad PC, step overrun, bad syscall)."""


class Cpu:
    """A single MIPS-like core bound to a program and a memory."""

    def __init__(self, program: Program, memory: Memory | None = None):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.regs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.hi = 0
        self.lo = 0
        self.fcc = False
        self.pc = program.entry
        self.running = True
        self.steps = 0
        self.block_runs = 0
        self.output: list[str] = []
        self.regs[SP] = STACK_TOP
        self.regs[GP] = (program.data_base + 0x8000) & MASK32
        self.memory.write_bytes(program.data_base, bytes(program.data_image))
        # Keep a copy of the text image in memory too, so indirect
        # reads of code (rare, but legal) behave.
        for i, word in enumerate(program.words):
            self.memory.write_u32(program.text_base + 4 * i, word)
        self._compiled = [self._compile(inst) for inst in program.instructions]
        #: entry PC -> (ops, address range, length); see _run_at.
        self._runs: dict[int, tuple[tuple, range, int]] = {}
        self._leaders: list[int] | None = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        max_steps: int = 100_000_000,
        trace: list[int] | None = None,
    ) -> int:
        """Run until exit; returns the executed instruction count.

        ``trace``, when given, receives every fetched PC in order —
        the raw material for the bus transition measurements.

        Each dispatch executes one run (see :meth:`_run_at`).  A run
        longer than the remaining ``max_steps`` budget is cut, so the
        step guard fires on the exact instruction it did before and
        leaves ``pc`` at the next one; a later :meth:`run` resumes
        there.  If an op raises, the trace ends with the faulting PC
        and ``pc`` stays on it.
        """
        runs = self._runs
        steps = 0
        dispatches = 0
        pc = self.pc
        while self.running:
            if steps >= max_steps:
                raise CpuError(f"exceeded {max_steps} steps")
            run = runs.get(pc)
            if run is None:
                run = self._run_at(pc)
            ops, addresses, n = run
            if steps + n > max_steps:
                n = max_steps - steps
                ops, addresses = ops[:n], addresses[:n]
            try:
                for op in ops:
                    op(self)
            except Exception:
                # Ops raise before advancing pc, so self.pc is the
                # faulting instruction: trace up to and including it.
                if trace is not None:
                    trace.extend(addresses[: ((self.pc - pc) >> 2) + 1])
                raise
            if trace is not None:
                trace.extend(addresses)
            steps += n
            dispatches += 1
            pc = self.pc
        self.steps += steps
        self.block_runs += dispatches
        return steps

    def _run_at(self, pc: int) -> tuple[tuple, range, int]:
        """The run entered at ``pc``: the compiled ops from ``pc`` to
        the end of its basic block, their addresses and their count.
        Built on first entry, so a ``jr`` into the middle of a block
        gets its own (shorter) run."""
        base = self.program.text_base
        end = self.program.text_end
        if pc < base or pc >= end or pc & 3:
            raise CpuError(f"PC out of text: {pc:#010x}")
        if self._leaders is None:
            from repro.cfg.basic_blocks import find_leaders

            self._leaders = sorted(find_leaders(self.program))
        leaders = self._leaders
        i = bisect_right(leaders, pc)
        stop = leaders[i] if i < len(leaders) else end
        first = (pc - base) >> 2
        ops = tuple(self._compiled[first : (stop - base) >> 2])
        run = (ops, range(pc, stop, 4), len(ops))
        self._runs[pc] = run
        return run

    def step(self) -> None:
        """Execute a single instruction (slow path, for tests)."""
        base = self.program.text_base
        if self.pc < base or self.pc >= self.program.text_end or self.pc & 3:
            raise CpuError(f"PC out of text: {self.pc:#010x}")
        self._compiled[(self.pc - base) >> 2](self)
        self.steps += 1

    # ------------------------------------------------------------------
    # System calls
    # ------------------------------------------------------------------

    def _syscall(self) -> None:
        service = self.regs[V0]
        if service == 1:
            self.output.append(str(_signed(self.regs[A0])))
        elif service == 3:
            self.output.append(repr(self.fregs[12]))
        elif service == 4:
            self.output.append(self.memory.read_cstring(self.regs[A0]))
        elif service == 11:
            self.output.append(chr(self.regs[A0] & 0xFF))
        elif service == 10:
            self.running = False
        else:
            raise CpuError(f"unknown syscall {service} at {self.pc:#010x}")

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------

    def _compile(self, inst: Instruction) -> Callable[["Cpu"], None]:
        name = inst.name
        rd, rs, rt = inst.get("rd"), inst.get("rs"), inst.get("rt")
        fd, fs, ft = inst.get("fd"), inst.get("fs"), inst.get("ft")
        shamt = inst.get("shamt")
        imm_u = inst.get("imm")
        imm_s = inst.simm
        target = inst.get("target")

        def wreg(builder):
            """Wrap a register-writing closure so $zero stays zero."""
            if builder is None:
                return None
            if rd == 0 and name not in ("jalr",):
                def discard(c, b=builder):
                    b(c)
                    c.regs[0] = 0
                return discard
            return builder

        # --- R-type ALU -----------------------------------------------
        if name in ("add", "addu"):
            def op(c):
                c.regs[rd] = (c.regs[rs] + c.regs[rt]) & MASK32
                c.pc += 4
            return wreg(op)
        if name in ("sub", "subu"):
            def op(c):
                c.regs[rd] = (c.regs[rs] - c.regs[rt]) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "and":
            def op(c):
                c.regs[rd] = c.regs[rs] & c.regs[rt]
                c.pc += 4
            return wreg(op)
        if name == "or":
            def op(c):
                c.regs[rd] = c.regs[rs] | c.regs[rt]
                c.pc += 4
            return wreg(op)
        if name == "xor":
            def op(c):
                c.regs[rd] = c.regs[rs] ^ c.regs[rt]
                c.pc += 4
            return wreg(op)
        if name == "nor":
            def op(c):
                c.regs[rd] = ~(c.regs[rs] | c.regs[rt]) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "slt":
            def op(c):
                c.regs[rd] = 1 if _signed(c.regs[rs]) < _signed(c.regs[rt]) else 0
                c.pc += 4
            return wreg(op)
        if name == "sltu":
            def op(c):
                c.regs[rd] = 1 if c.regs[rs] < c.regs[rt] else 0
                c.pc += 4
            return wreg(op)
        if name == "sll":
            def op(c):
                c.regs[rd] = (c.regs[rt] << shamt) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "srl":
            def op(c):
                c.regs[rd] = c.regs[rt] >> shamt
                c.pc += 4
            return wreg(op)
        if name == "sra":
            def op(c):
                c.regs[rd] = (_signed(c.regs[rt]) >> shamt) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "sllv":
            def op(c):
                c.regs[rd] = (c.regs[rt] << (c.regs[rs] & 31)) & MASK32
                c.pc += 4
            return wreg(op)
        if name == "srlv":
            def op(c):
                c.regs[rd] = c.regs[rt] >> (c.regs[rs] & 31)
                c.pc += 4
            return wreg(op)
        if name == "srav":
            def op(c):
                c.regs[rd] = (_signed(c.regs[rt]) >> (c.regs[rs] & 31)) & MASK32
                c.pc += 4
            return wreg(op)
        if name in ("mult", "multu"):
            signed = name == "mult"
            def op(c):
                a = _signed(c.regs[rs]) if signed else c.regs[rs]
                b = _signed(c.regs[rt]) if signed else c.regs[rt]
                product = a * b
                c.lo = product & MASK32
                c.hi = (product >> 32) & MASK32
                c.pc += 4
            return op
        if name in ("div", "divu"):
            signed = name == "div"
            def op(c):
                a = _signed(c.regs[rs]) if signed else c.regs[rs]
                b = _signed(c.regs[rt]) if signed else c.regs[rt]
                if b == 0:
                    c.lo = 0
                    c.hi = 0
                else:
                    quotient = int(a / b)  # trunc toward zero, MIPS-style
                    c.lo = quotient & MASK32
                    c.hi = (a - quotient * b) & MASK32
                c.pc += 4
            return op
        if name == "mfhi":
            def op(c):
                c.regs[rd] = c.hi
                c.pc += 4
            return wreg(op)
        if name == "mflo":
            def op(c):
                c.regs[rd] = c.lo
                c.pc += 4
            return wreg(op)
        if name == "mthi":
            def op(c):
                c.hi = c.regs[rs]
                c.pc += 4
            return op
        if name == "mtlo":
            def op(c):
                c.lo = c.regs[rs]
                c.pc += 4
            return op
        if name == "jr":
            def op(c):
                c.pc = c.regs[rs]
            return op
        if name == "jalr":
            link = rd if rd else RA
            def op(c):
                c.regs[link] = (c.pc + 4) & MASK32
                c.pc = c.regs[rs]
            return op
        if name == "syscall":
            def op(c):
                c._syscall()
                c.pc += 4
            return op

        # --- I-type ----------------------------------------------------
        if name in ("addi", "addiu"):
            def op(c):
                c.regs[rt] = (c.regs[rs] + imm_s) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "slti":
            def op(c):
                c.regs[rt] = 1 if _signed(c.regs[rs]) < imm_s else 0
                c.pc += 4
            return self._wrt(op, rt)
        if name == "sltiu":
            def op(c):
                c.regs[rt] = 1 if c.regs[rs] < (imm_s & MASK32) else 0
                c.pc += 4
            return self._wrt(op, rt)
        if name == "andi":
            def op(c):
                c.regs[rt] = c.regs[rs] & imm_u
                c.pc += 4
            return self._wrt(op, rt)
        if name == "ori":
            def op(c):
                c.regs[rt] = c.regs[rs] | imm_u
                c.pc += 4
            return self._wrt(op, rt)
        if name == "xori":
            def op(c):
                c.regs[rt] = c.regs[rs] ^ imm_u
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lui":
            value = (imm_u << 16) & MASK32
            def op(c):
                c.regs[rt] = value
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lw":
            def op(c):
                c.regs[rt] = c.memory.read_u32((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return self._wrt(op, rt)
        if name == "sw":
            def op(c):
                c.memory.write_u32((c.regs[rs] + imm_s) & MASK32, c.regs[rt])
                c.pc += 4
            return op
        if name == "lb":
            def op(c):
                c.regs[rt] = c.memory.read_s8((c.regs[rs] + imm_s) & MASK32) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lbu":
            def op(c):
                c.regs[rt] = c.memory.read_u8((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lh":
            def op(c):
                c.regs[rt] = c.memory.read_s16((c.regs[rs] + imm_s) & MASK32) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "lhu":
            def op(c):
                c.regs[rt] = c.memory.read_u16((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return self._wrt(op, rt)
        if name == "sb":
            def op(c):
                c.memory.write_u8((c.regs[rs] + imm_s) & MASK32, c.regs[rt])
                c.pc += 4
            return op
        if name == "sh":
            def op(c):
                c.memory.write_u16((c.regs[rs] + imm_s) & MASK32, c.regs[rt])
                c.pc += 4
            return op
        if name == "beq":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if c.regs[rs] == c.regs[rt] else 4
            return op
        if name == "bne":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if c.regs[rs] != c.regs[rt] else 4
            return op
        if name == "blez":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) <= 0 else 4
            return op
        if name == "bgtz":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) > 0 else 4
            return op
        if name == "bltz":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) < 0 else 4
            return op
        if name == "bgez":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if _signed(c.regs[rs]) >= 0 else 4
            return op
        if name == "j":
            destination = target << 2
            def op(c):
                c.pc = destination
            return op
        if name == "jal":
            destination = target << 2
            def op(c):
                c.regs[RA] = (c.pc + 4) & MASK32
                c.pc = destination
            return op

        # --- FP loads/stores --------------------------------------------
        if name == "ldc1":
            def op(c):
                c.fregs[ft] = c.memory.read_f64((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return op
        if name == "sdc1":
            def op(c):
                c.memory.write_f64((c.regs[rs] + imm_s) & MASK32, c.fregs[ft])
                c.pc += 4
            return op
        if name == "lwc1":
            def op(c):
                c.fregs[ft] = c.memory.read_f32((c.regs[rs] + imm_s) & MASK32)
                c.pc += 4
            return op
        if name == "swc1":
            def op(c):
                c.memory.write_f32((c.regs[rs] + imm_s) & MASK32, c.fregs[ft])
                c.pc += 4
            return op

        # --- FP arithmetic -----------------------------------------------
        if name == "add.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs] + c.fregs[ft]
                c.pc += 4
            return op
        if name == "sub.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs] - c.fregs[ft]
                c.pc += 4
            return op
        if name == "mul.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs] * c.fregs[ft]
                c.pc += 4
            return op
        if name == "div.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs] / c.fregs[ft]
                c.pc += 4
            return op
        if name == "sqrt.d":
            def op(c):
                c.fregs[fd] = math.sqrt(c.fregs[fs])
                c.pc += 4
            return op
        if name == "abs.d":
            def op(c):
                c.fregs[fd] = abs(c.fregs[fs])
                c.pc += 4
            return op
        if name == "mov.d":
            def op(c):
                c.fregs[fd] = c.fregs[fs]
                c.pc += 4
            return op
        if name == "neg.d":
            def op(c):
                c.fregs[fd] = -c.fregs[fs]
                c.pc += 4
            return op
        if name == "cvt.w.d":
            def op(c):
                c.fregs[fd] = float(int(c.fregs[fs]))  # truncate
                c.pc += 4
            return op
        if name == "cvt.d.w":
            def op(c):
                c.fregs[fd] = float(c.fregs[fs])
                c.pc += 4
            return op
        if name == "c.eq.d":
            def op(c):
                c.fcc = c.fregs[fs] == c.fregs[ft]
                c.pc += 4
            return op
        if name == "c.lt.d":
            def op(c):
                c.fcc = c.fregs[fs] < c.fregs[ft]
                c.pc += 4
            return op
        if name == "c.le.d":
            def op(c):
                c.fcc = c.fregs[fs] <= c.fregs[ft]
                c.pc += 4
            return op
        if name == "bc1t":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if c.fcc else 4
            return op
        if name == "bc1f":
            offset = 4 + 4 * imm_s
            def op(c):
                c.pc += offset if not c.fcc else 4
            return op
        if name == "mfc1":
            def op(c):
                c.regs[rt] = int(c.fregs[fs]) & MASK32
                c.pc += 4
            return self._wrt(op, rt)
        if name == "mtc1":
            def op(c):
                c.fregs[fs] = float(_signed(c.regs[rt]))
                c.pc += 4
            return op

        raise CpuError(f"no handler for instruction {name!r}")

    @staticmethod
    def _wrt(builder: Callable[["Cpu"], None], rt: int):
        """Wrap an rt-writing closure so $zero stays zero."""
        if rt != 0:
            return builder

        def discard(c, b=builder):
            b(c)
            c.regs[0] = 0

        return discard


def run_program(
    program: Program,
    max_steps: int = 100_000_000,
    with_trace: bool = True,
) -> tuple[Cpu, list[int]]:
    """Assemble-and-go helper: run ``program`` and return the CPU state
    plus the fetch trace (list of PCs)."""
    from repro.obs import OBS

    cpu = Cpu(program)
    trace: list[int] = [] if with_trace else None  # type: ignore[assignment]
    with OBS.tracer.span("sim.run", instructions=len(program.words)) as span:
        cpu.run(max_steps=max_steps, trace=trace)
        span.set(steps=cpu.steps, block_runs=cpu.block_runs)
    if OBS.enabled:
        OBS.registry.counter(
            "sim.instructions", "instructions executed by the functional CPU"
        ).inc(cpu.steps)
        OBS.registry.counter(
            "sim.block_runs", "basic-block runs dispatched by the functional CPU"
        ).inc(cpu.block_runs)
        OBS.registry.counter(
            "sim.fetches", "fetch addresses captured into traces"
        ).inc(len(trace) if with_trace else 0)
    return cpu, (trace if with_trace else [])
