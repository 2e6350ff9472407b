"""Random-rank virtual tree embedding (Khan et al. [14]; Section 5).

Every node draws a uniformly random *rank* (a random permutation, standing
in for the paper's random O(log n)-bit IDs) and a global scale β is drawn
uniformly from [1, 2]. The level-i ancestor of a node v is

    A_i(v) = argmax-rank { u : wd(v, u) ≤ β · 2^i },

for i = 0 .. L with L = ⌈log₂ WD⌉ + 1, so A_L(v) is the global maximum-rank
node and the chain A_0(v), A_1(v), … has non-decreasing rank. The virtual
tree edge (A_{i-1}(v), A_i(v)) has weight β·2^i, and the embedding routes
from v directly to each of its ancestors along least-weight paths — the key
property being that w.h.p. only O(log n) distinct such paths pass through
any physical node (measured and exposed as ``max_paths_per_node``).

When ``truncate_at`` is given (the set S of √n highest-rank nodes for the
s > √n regime), each node's ancestor chain stops at level
i_v = min{ i : B(v, β·2^i) ∩ S ≠ ∅ }; from there the node connects to its
closest node of S instead (Lemma G.2).

Distributed cost: constructing the (possibly truncated) tree takes
Õ(min{s, √n} + D) rounds w.h.p. — realized here by running the actual
Bellman–Ford computations on the simulator (Voronoi w.r.t. S, hop-capped at
Õ(√n)) and charging the LE-list style level sweeps.
"""

import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from repro.congest.bellman_ford import bellman_ford
from repro.congest.bfs import build_bfs_tree
from repro.congest.run import CongestRun
from repro.model.graph import Node, WeightedGraph
from repro.randomized.le_lists import ancestor_from_le_list, le_list_of_row

#: Denominator resolution for the random β ∈ [1, 2] (exact Fraction).
_BETA_RESOLUTION = 1 << 16


class VirtualTreeEmbedding:
    """The constructed (possibly truncated) virtual tree.

    Attributes:
        graph: the underlying network.
        rank: node → rank (higher = more senior; a permutation of 0..n-1).
        beta: the random scale β ∈ [1, 2] as an exact Fraction.
        levels: L + 1, the number of ancestor levels.
        ancestors: node → list of physical ancestors A_0(v) … (truncated
            chains stop early).
        truncation_level: node → i_v (== len(ancestors[v]) when truncated;
            equals levels when not truncated).
        nearest_s: node → closest node of S (None when S is empty).
        s_nodes: the truncation set S (empty when s ≤ √n).
        max_paths_per_node: measured maximum number of distinct embedding
            paths through a physical node (the paper's O(log n) claim).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        rank: Dict[Node, int],
        beta: Fraction,
        levels: int,
        ancestors: Dict[Node, List[Node]],
        truncation_level: Dict[Node, int],
        nearest_s: Dict[Node, Optional[Node]],
        s_nodes: Set[Node],
        max_paths_per_node: int,
    ) -> None:
        self.graph = graph
        self.rank = rank
        self.beta = beta
        self.levels = levels
        self.ancestors = ancestors
        self.truncation_level = truncation_level
        self.nearest_s = nearest_s
        self.s_nodes = s_nodes
        self.max_paths_per_node = max_paths_per_node

    def ancestor_at(self, v: Node, level: int) -> Tuple[Node, bool]:
        """The routing target of ``v`` at ``level``.

        Returns (target, truncated): the level-``level`` ancestor, or the
        closest S node with truncated=True when the chain is truncated at or
        below ``level``.
        """
        if level < self.truncation_level[v]:
            return self.ancestors[v][level], False
        target = self.nearest_s[v]
        assert target is not None, "truncated chain requires S"
        return target, True

    def virtual_edge_weight(self, level: int) -> Fraction:
        """Weight β·2^level of a virtual edge into ``level``."""
        return self.beta * (1 << level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualTreeEmbedding(levels={self.levels}, "
            f"|S|={len(self.s_nodes)}, beta={float(self.beta):.4f})"
        )


def build_embedding(
    graph: WeightedGraph,
    run: CongestRun,
    rng: random.Random,
    truncate_at: Optional[int] = None,
) -> VirtualTreeEmbedding:
    """Construct the virtual tree, charging the distributed cost to ``run``.

    Args:
        graph: the network.
        run: the round ledger.
        rng: randomness source (ranks and β).
        truncate_at: |S| — when given, the ancestors are truncated at the
            ``truncate_at`` highest-rank nodes (use √n for the s > √n
            regime); None builds the full tree.

    A_i(v) is the last entry within ⌊β·2^i⌋ (exact: distances are ints)
    of v's LE list, built from its distance row — the local knowledge
    the LE-list construction of [14] provides each node with. Every list,
    and the truncation set S (the first ``truncate_at`` nodes of the
    walk), is read off one walk of the rank permutation in reverse: no
    row is sorted. The rows are the oracle's rank-indexed
    :meth:`~repro.model.graph.WeightedGraph.distance_row` views, so the
    walk is over graph ranks. The communication cost is charged from
    real simulator executions: one hop-capped multi-source Bellman–Ford
    per level sweep.
    """
    nodes = graph.nodes
    n = len(nodes)
    # The permutation as graph ranks; shuffling depends on the length
    # only, so it equals a shuffle of the nodes themselves.
    order = list(range(n))
    rng.shuffle(order)
    rank = {nodes[r]: i for i, r in enumerate(order)}
    beta = 1 + Fraction(rng.randrange(_BETA_RESOLUTION), _BETA_RESOLUTION)
    wd = graph.weighted_diameter()
    levels = max(1, math.ceil(math.log2(max(2, wd)))) + 1

    descending = order[::-1]

    s_nodes: Set[Node] = set()
    nearest_s: Dict[Node, Optional[Node]] = {v: None for v in nodes}
    if truncate_at is not None and truncate_at > 0:
        s_nodes = {nodes[r] for r in descending[:truncate_at]}
        # Voronoi decomposition w.r.t. S, hop-capped at Õ(√n) (Lemma G.2):
        # executed for real on the simulator.
        hop_cap = max(
            1, math.isqrt(n) * max(1, math.ceil(math.log2(max(2, n)))))
        voronoi = bellman_ford(
            graph,
            {v: (0, v) for v in sorted(s_nodes, key=repr)},
            run,
            max_iterations=hop_cap,
        )
        for v in nodes:
            nearest_s[v] = voronoi.tag.get(v)

    radii = [(beta.numerator << i) // beta.denominator for i in range(levels)]
    ancestors: Dict[Node, List[Node]] = {}
    truncation_level: Dict[Node, int] = {}
    for v in nodes:
        le_list = le_list_of_row(graph.distance_row(v), descending)
        chain: List[Node] = []
        cutoff = levels
        for i, radius in enumerate(radii):
            best = nodes[ancestor_from_le_list(le_list, radius)]
            if s_nodes and best in s_nodes:
                cutoff = i
                break
            chain.append(best)
        ancestors[v] = chain
        truncation_level[v] = cutoff

    # Charge the level sweeps of the LE-list construction: one sweep per
    # level, each bounded by the hop length of the embedding paths
    # (≤ min{s, Õ(√n)}), plus a BFS tree for coordination.
    tree = build_bfs_tree(graph, run)
    hop_bound, max_paths = _measure_embedding_paths(graph, ancestors, nearest_s)
    run.charge_rounds(
        levels * max(1, hop_bound),
        "LE-list level sweeps of the tree construction ([14], Lemma G.2)",
    )

    return VirtualTreeEmbedding(
        graph,
        rank,
        beta,
        levels,
        ancestors,
        truncation_level,
        nearest_s,
        s_nodes,
        max_paths,
    )


def _measure_embedding_paths(
    graph: WeightedGraph,
    ancestors: Dict[Node, List[Node]],
    nearest_s: Dict[Node, Optional[Node]],
) -> Tuple[int, int]:
    """Over all embedding paths (v → each ancestor / S): the max hop
    length, and the max number of distinct paths through one node."""
    max_hops = 0
    load: Dict[Node, Set[Tuple[Node, Node]]] = {v: set() for v in graph.nodes}
    for v, chain in ancestors.items():
        targets = set(chain)
        if nearest_s[v] is not None:
            targets.add(nearest_s[v])
        for u in targets:
            if u == v:
                continue
            path = graph.shortest_path(v, u)
            max_hops = max(max_hops, len(path) - 1)
            for x in path:
                load[x].add((v, u))
    return max_hops, max((len(paths) for paths in load.values()), default=0)
