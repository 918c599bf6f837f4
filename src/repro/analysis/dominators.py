"""Dominator analysis over recovered CFGs.

A block ``d`` dominates ``b`` when every path from the analysis roots
to ``b`` passes through ``d``.  DynaLint uses domination to decide when
a removal-set block is *provably dead*: once its guarding trap sites
are patched, no kept path can reach it.

Three primitives are provided:

* :func:`compute_dominators` — the classic iterative immediate-
  dominator algorithm (Cooper/Harvey/Kennedy) over block-start edges,
  generalized to multiple roots through a virtual super-root;
* :func:`collectively_dominated` — the *set* form of domination: the
  blocks every root-path to which crosses a member of a cut set.  A
  single dominating block is the ``len(cutset) == 1`` special case,
  which the tests pin against the dominator tree;
* :func:`reachable` — the blocks a set of roots reaches, the one walk
  the cut-set test and the removal classifier share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

#: synthetic super-root used when the analysis has several entry points
VIRTUAL_ROOT = -1

Edges = Mapping[int, tuple[int, ...]]


@dataclass
class DominatorTree:
    """Immediate-dominator tree over block start addresses.

    ``idom`` maps every reachable block to its immediate dominator;
    the root maps to itself.  Unreachable blocks are absent.
    """

    root: int
    idom: dict[int, int]

    def __contains__(self, block: int) -> bool:
        return block in self.idom

    def dominates(self, a: int, b: int) -> bool:
        """True when ``a`` dominates ``b`` (every block dominates itself)."""
        if b not in self.idom or a not in self.idom:
            return False
        node = b
        while True:
            if node == a:
                return True
            parent = self.idom[node]
            if parent == node:
                return False
            node = parent

    def dominators_of(self, block: int) -> list[int]:
        """The dominator chain of ``block``, from itself up to the root."""
        if block not in self.idom:
            return []
        chain = [block]
        while self.idom[chain[-1]] != chain[-1]:
            chain.append(self.idom[chain[-1]])
        return chain

    def dominated_by(self, block: int) -> set[int]:
        """Every block dominated by ``block`` (including itself)."""
        return {b for b in self.idom if self.dominates(block, b)}


def _reverse_postorder(edges: Edges, roots: Iterable[int]) -> list[int]:
    order: list[int] = []
    visited: set[int] = set()
    for root in roots:
        if root in visited:
            continue
        # iterative DFS with an explicit done-marker for postorder
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for succ in edges.get(node, ()):
                if succ not in visited:
                    stack.append((succ, False))
    order.reverse()
    return order


def compute_dominators(edges: Edges, roots: Iterable[int]) -> DominatorTree:
    """Build the dominator tree of the graph reachable from ``roots``.

    With several roots a :data:`VIRTUAL_ROOT` is inserted above them, so
    a block reachable from two roots independently is dominated only by
    the virtual root — exactly the "no single guard" answer the removal
    classifier needs.
    """
    roots = list(dict.fromkeys(roots))
    if not roots:
        return DominatorTree(VIRTUAL_ROOT, {})
    if len(roots) == 1:
        root = roots[0]
        graph: Edges = edges
    else:
        root = VIRTUAL_ROOT
        graph = dict(edges) | {VIRTUAL_ROOT: tuple(roots)}

    order = _reverse_postorder(graph, [root])
    index = {block: i for i, block in enumerate(order)}
    preds: dict[int, list[int]] = {block: [] for block in order}
    for block in order:
        for succ in graph.get(block, ()):
            if succ in index:
                preds[succ].append(block)

    idom: dict[int, int] = {root: root}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in order:
            if block == root:
                continue
            new_idom: int | None = None
            for pred in preds[block]:
                if pred not in idom:
                    continue
                new_idom = pred if new_idom is None else intersect(pred, new_idom)
            if new_idom is not None and idom.get(block) != new_idom:
                idom[block] = new_idom
                changed = True
    return DominatorTree(root, idom)


def collectively_dominated(
    edges: Edges, roots: Iterable[int], cutset: set[int]
) -> set[int]:
    """Blocks whose every path from ``roots`` crosses the ``cutset``.

    Computed as the reachable set minus what stays reachable once the
    cut set stops propagating (members of the cut set are themselves
    reached but not expanded).  Blocks unreachable from the roots
    altogether are *not* reported — the caller decides their fate.
    """
    full = reachable(edges, roots)
    open_reach = reachable(edges, roots, stop=cutset)
    return (full - open_reach) - cutset


def reachable(
    edges: Edges, roots: Iterable[int], stop: Collection[int] = ()
) -> set[int]:
    """Blocks reachable from ``roots``; members of ``stop`` are reached
    but not expanded."""
    seen: set[int] = set()
    stack = [r for r in roots]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node in stop:
            continue
        for succ in edges.get(node, ()):
            if succ not in seen:
                stack.append(succ)
    return seen
