"""Distributed BFS-tree construction.

Nearly every step of the paper's algorithms coordinates over a BFS tree
rooted at a distinguished node R (usually the maximum identifier): Lemmas
2.3/2.4 (input transforms), Lemma 4.14 (candidate-merge filtering), Appendix
F (growth-phase coordination), and the randomized algorithm's Steps 3a/3c.

The construction is the textbook flooding algorithm: in round ``d`` the
nodes at hop distance ``d`` from the root announce themselves; a node joins
the tree the first round it hears an announcement, picking the smallest-
identifier announcer as its parent. It completes in D + O(1) rounds.
"""

from typing import Dict, List, Optional

from repro.congest.run import CongestRun
from repro.model.graph import Node, WeightedGraph


class BFSTree:
    """A rooted BFS tree: parents, children, and depth bookkeeping."""

    def __init__(
        self,
        root: Node,
        parent: Dict[Node, Optional[Node]],
        depth_of: Dict[Node, int],
    ) -> None:
        self.root = root
        self.parent = parent
        self.depth_of = depth_of
        self.children: Dict[Node, List[Node]] = {v: [] for v in parent}
        for v, p in parent.items():
            if p is not None:
                self.children[p].append(v)
        for kids in self.children.values():
            kids.sort(key=repr)
        self.depth = max(depth_of.values()) if depth_of else 0

    def nodes_bottom_up(self) -> List[Node]:
        """All nodes ordered by decreasing depth (children before parents)."""
        return sorted(
            self.parent, key=lambda v: (-self.depth_of[v], repr(v))
        )

    def nodes_top_down(self) -> List[Node]:
        """All nodes ordered by increasing depth (parents before children)."""
        return sorted(
            self.parent, key=lambda v: (self.depth_of[v], repr(v))
        )

    def path_to_root(self, v: Node) -> List[Node]:
        """The tree path from ``v`` to the root, inclusive."""
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])  # type: ignore[arg-type]
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BFSTree(root={self.root!r}, depth={self.depth})"


def default_root(graph: WeightedGraph) -> Node:
    """The paper's canonical root choice: the largest identifier."""
    return max(graph.nodes, key=repr)


def build_bfs_tree(
    graph: WeightedGraph,
    run: CongestRun,
    root: Optional[Node] = None,
) -> BFSTree:
    """Construct a BFS tree by flooding, charging D + O(1) rounds to ``run``.

    Round-by-round: every node that joined the tree in the previous round
    sends a "join me" message to all neighbors; an unjoined node picks the
    smallest-identifier sender as its parent. Two extra quiet rounds model
    local termination detection at the frontier.

    Every ledger runs this one path on ``graph``'s cached topology (the
    neighbor tuples and node reprs of
    :class:`~repro.model.graph.WeightedGraph`). On its own graph, a
    :class:`~repro.perf.npkernels.NumpyCongestRun` runs the whole flood
    as array kernels instead (integer ranks reproduce the ``repr``
    tie-breaking); the execution — parents, depths, rounds, per-edge
    traffic — is identical (tests/test_ledger_golden.py,
    tests/test_npkernels.py).
    """
    if root is None:
        root = default_root(graph)
    if graph is run.graph and getattr(run, "npc", None) is not None:
        from repro.perf.npkernels import build_bfs_tree_numpy

        return build_bfs_tree_numpy(run, root)
    reprs = graph.repr_of
    parent: Dict[Node, Optional[Node]] = {root: None}
    depth_of: Dict[Node, int] = {root: 0}
    frontier: List[Node] = [root]
    depth = 0
    while frontier:
        depth += 1
        proposals: Dict[Node, List[Node]] = {}
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in parent:
                    proposals.setdefault(v, []).append(u)
        run.tick_neighbors(graph, frontier)
        frontier = sorted(proposals, key=reprs.__getitem__)
        for v in frontier:
            parent[v] = min(proposals[v], key=reprs.__getitem__)
            depth_of[v] = depth
    return BFSTree(root, parent, depth_of)
