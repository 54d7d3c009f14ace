"""Control-flow graph built on networkx."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import networkx as nx

from repro.cfg.basic_blocks import BasicBlock, build_basic_blocks
from repro.isa.assembler import Program


@dataclass
class ControlFlowGraph:
    """A program's CFG: blocks keyed by start address + a digraph."""

    program: Program
    blocks: dict[int, BasicBlock]
    graph: nx.DiGraph
    entry: int

    @classmethod
    def build(cls, program: Program) -> "ControlFlowGraph":
        blocks = build_basic_blocks(program)
        graph = nx.DiGraph()
        graph.add_nodes_from(blocks)
        for start, block in blocks.items():
            for successor in block.successors:
                graph.add_edge(start, successor)
        entry = program.entry if program.entry in blocks else program.text_base
        return cls(program=program, blocks=blocks, graph=graph, entry=entry)

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
        if self.entry not in self.graph:
            return set()
        return set(nx.descendants(self.graph, self.entry)) | {self.entry}

    def successors(self, start: int) -> list[int]:
        return list(self.graph.successors(start))

    def predecessors(self, start: int) -> list[int]:
        return list(self.graph.predecessors(start))

    def __len__(self) -> int:
        return len(self.blocks)
