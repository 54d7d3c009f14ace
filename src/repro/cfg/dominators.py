"""Dominator computation (Cooper-Harvey-Kennedy iterative algorithm).

Implemented from scratch over plain adjacency dicts (the loop
detector depends on it); the test suite cross-checks against
networkx's ``immediate_dominators``.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def _postorder(succ: Mapping, entry) -> list:
    """Depth-first post-order of the nodes reachable from ``entry``,
    visiting successors in list order."""
    order = []
    seen = {entry}
    stack = [(entry, iter(succ[entry]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(succ[child])))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def immediate_dominators(
    succ: Mapping[object, Sequence], pred: Mapping[object, Sequence], entry
) -> dict:
    """Immediate dominator of every node reachable from ``entry``, for
    the graph with successor lists ``succ`` and predecessor lists
    ``pred`` (every node a key of both).

    The entry maps to itself.  Unreachable nodes are absent.
    """
    if entry not in succ:
        raise KeyError(f"entry {entry!r} not in graph")

    order = _postorder(succ, entry)
    index = {node: i for i, node in enumerate(order)}
    reverse_postorder = list(reversed(order))

    idom: dict = {entry: entry}

    def intersect(a, b):
        while a != b:
            while index[a] < index[b]:
                a = idom[a]
            while index[b] < index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reverse_postorder:
            if node == entry:
                continue
            candidates = [p for p in pred[node] if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def dominates(idom: dict, a, b) -> bool:
    """True if ``a`` dominates ``b`` under the given idom tree."""
    node = b
    while True:
        if node == a:
            return True
        parent = idom.get(node)
        if parent is None or parent == node:
            return node == a
        node = parent
