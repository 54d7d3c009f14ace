"""Tests for the CFG adjacency and the dominator computation.

networkx is the independent oracle: each check builds an
``nx.DiGraph`` from the same edges and compares against
``nx.immediate_dominators``.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.dominators import dominates, immediate_dominators
from repro.cfg.graph import ControlFlowGraph
from repro.isa.assembler import TEXT_BASE, assemble

NESTED_LOOPS = """
        .text
main:   li $s0, 3
outer:  li $s1, 3
inner:  addiu $s1, $s1, -1
        bnez $s1, inner
        addiu $s0, $s0, -1
        bnez $s0, outer
        li $v0, 10
        syscall
"""


@pytest.fixture(scope="module")
def nested_cfg():
    return ControlFlowGraph.build(assemble(NESTED_LOOPS))


def _adjacency(nodes, edges):
    """``(succ, pred)`` lists for ``immediate_dominators``."""
    succ = {node: [] for node in nodes}
    pred = {node: [] for node in nodes}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    return succ, pred


def _idom(edges, entry, extra_nodes=()):
    nodes = dict.fromkeys([n for edge in edges for n in edge] + list(extra_nodes))
    return immediate_dominators(*_adjacency(nodes, edges), entry)


def _nx_idom(nodes, edges, entry) -> dict:
    """networkx's idom map with the entry mapped to itself (networkx
    >= 3.6 omits the start node from its result)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    theirs = dict(nx.immediate_dominators(graph, entry))
    theirs[entry] = entry
    return theirs


class TestControlFlowGraph:
    def test_nodes_match_blocks(self, nested_cfg):
        assert set(nested_cfg.succ) == set(nested_cfg.blocks)
        assert set(nested_cfg.pred) == set(nested_cfg.blocks)
        assert set(nested_cfg.edges) == {
            (start, target)
            for start, block in nested_cfg.blocks.items()
            for target in block.successors
        }

    def test_entry(self, nested_cfg):
        assert nested_cfg.entry == TEXT_BASE

    def test_block_of(self, nested_cfg):
        program = nested_cfg.program
        inner = program.address_of("inner")
        assert nested_cfg.block_of(inner).start == inner
        assert nested_cfg.block_of(inner + 4).start == inner
        with pytest.raises(KeyError):
            nested_cfg.block_of(program.text_end + 100)

    def test_all_blocks_reachable(self, nested_cfg):
        assert nested_cfg.reachable_blocks() == set(nested_cfg.blocks)

    def test_successor_predecessor_symmetry(self, nested_cfg):
        for node in nested_cfg.blocks:
            for succ in nested_cfg.successors(node):
                assert node in nested_cfg.predecessors(succ)


class TestDominators:
    def test_entry_dominates_everything(self, nested_cfg):
        idom = immediate_dominators(
            nested_cfg.succ, nested_cfg.pred, nested_cfg.entry
        )
        for node in idom:
            assert dominates(idom, nested_cfg.entry, node)

    def test_matches_networkx(self, nested_cfg):
        entry = nested_cfg.entry
        ours = immediate_dominators(nested_cfg.succ, nested_cfg.pred, entry)
        assert ours == _nx_idom(nested_cfg.blocks, nested_cfg.edges, entry)

    def test_diamond(self):
        idom = _idom(
            [("entry", "a"), ("entry", "b"), ("a", "join"), ("b", "join")],
            "entry",
        )
        assert idom["join"] == "entry"
        assert idom["a"] == "entry"
        assert not dominates(idom, "a", "join")

    def test_chain(self):
        idom = _idom([("a", "b"), ("b", "c")], "a")
        assert idom == {"a": "a", "b": "a", "c": "b"}
        assert dominates(idom, "a", "c")
        assert dominates(idom, "b", "c")
        assert not dominates(idom, "c", "b")

    def test_unreachable_nodes_absent(self):
        idom = _idom([("a", "b")], "a", extra_nodes=["island"])
        assert "island" not in idom

    def test_missing_entry_raises(self):
        with pytest.raises(KeyError):
            _idom([("a", "b")], "zzz")

    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_random_graphs_match_networkx(self, seed, n):
        rng = nx.gnp_random_graph(n, 0.35, seed=seed, directed=True)
        ours = immediate_dominators(*_adjacency(rng.nodes, rng.edges), 0)
        assert ours == _nx_idom(rng.nodes, rng.edges, 0)
