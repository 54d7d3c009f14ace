"""``ControlFlowGraph.block_of`` against a linear scan of the blocks.

The lookup bisects block starts sorted once per graph; the scan below
asks every block whether it holds the address, so the two share no
search code.
"""

import pytest

from repro.cfg.graph import ControlFlowGraph
from repro.workloads.registry import (
    BENCHMARK_ORDER,
    EXTENDED_WORKLOADS,
    build_workload,
)


def _scan(cfg: ControlFlowGraph, address: int):
    hits = [b for b in cfg.blocks.values() if b.start <= address < b.end]
    assert len(hits) <= 1
    return hits[0] if hits else None


@pytest.mark.parametrize("name", BENCHMARK_ORDER + EXTENDED_WORKLOADS)
def test_block_of_matches_linear_scan(name):
    program = build_workload(name).assemble()
    cfg = ControlFlowGraph.build(program)
    for address in range(program.text_base, program.text_end, 4):
        assert cfg.block_of(address) is _scan(cfg, address)
    for outside in (program.text_base - 4, program.text_end):
        assert _scan(cfg, outside) is None
        with pytest.raises(KeyError):
            cfg.block_of(outside)
