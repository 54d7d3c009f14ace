"""Control-flow graph: basic blocks plus successor/predecessor lists.

A CFG here has a few dozen blocks, so plain adjacency dicts keyed by
block start address are all the graph structure it needs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from repro.cfg.basic_blocks import BasicBlock, build_basic_blocks
from repro.isa.assembler import Program


@dataclass
class ControlFlowGraph:
    """A program's CFG: blocks keyed by start address, and each block's
    distinct static successors (``succ``) and predecessors (``pred``)
    in edge insertion order (blocks in address order, each block's
    successors in its terminator's order)."""

    program: Program
    blocks: dict[int, BasicBlock]
    succ: dict[int, list[int]]
    pred: dict[int, list[int]]
    entry: int

    @classmethod
    def build(cls, program: Program) -> "ControlFlowGraph":
        blocks = build_basic_blocks(program)
        succ = {
            start: list(dict.fromkeys(block.successors))
            for start, block in blocks.items()
        }
        pred: dict[int, list[int]] = {start: [] for start in blocks}
        for start, targets in succ.items():
            for target in targets:
                pred[target].append(start)
        entry = program.entry if program.entry in blocks else program.text_base
        return cls(
            program=program, blocks=blocks, succ=succ, pred=pred, entry=entry
        )

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every static edge ``(source, target)`` in insertion order."""
        return [(u, v) for u, targets in self.succ.items() for v in targets]

    @cached_property
    def _starts(self) -> list[int]:
        return sorted(self.blocks)

    def block_of(self, address: int) -> BasicBlock:
        """The basic block containing an instruction address."""
        i = bisect_right(self._starts, address) - 1
        if i >= 0:
            block = self.blocks[self._starts[i]]
            if address < block.end:
                return block
        raise KeyError(f"address {address:#010x} not in any block")

    def reachable_blocks(self) -> set[int]:
        """Blocks reachable from the entry through static edges."""
        if self.entry not in self.succ:
            return set()
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for target in self.succ[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def successors(self, start: int) -> list[int]:
        return list(self.succ[start])

    def predecessors(self, start: int) -> list[int]:
        return list(self.pred[start])

    def __len__(self) -> int:
        return len(self.blocks)
