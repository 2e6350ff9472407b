"""Fast pruning of a solving forest (Appendix F.3).

Given a forest ``F`` that solves a DSF-IC instance, the final output must be
the *minimal* subforest that still solves it. Collecting everything at one
node costs Ω(t) rounds and tree depths can be Ω(st), so the paper prunes in
Õ(σ + k + D) rounds, σ = √min{st, n}:

1. components of (V, F) with diameter ≤ σ prune themselves locally;
2. larger components are partitioned into ≤ σ clusters of depth Õ(σ) by
   iterated matching-based cluster merging (Lemma F.7);
3. the contracted cluster forest (C, F_C) is made global knowledge
   (O(D + σ) rounds) and the label sets l_e of inter-cluster edges are
   derived by the pipelined label propagation of Lemma F.8
   (O(σ + k + D) rounds) — an inter-cluster edge survives iff some label
   has terminals on both of its sides;
4. each cluster selects the minimal intra-cluster subtrees spanning its
   demanded labels (Lemma F.6, O(σ + k) rounds).

In a forest the minimal feasible subset is *unique* (union of the unique
tree paths between same-group terminals), so the routine's output equals
``ForestSolution.minimal_subforest``; the implementation cross-checks this
invariant and the tests rely on it.
"""

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.congest.bfs import build_bfs_tree
from repro.congest.broadcast import broadcast_items, upcast_items
from repro.congest.run import CongestRun
from repro.core.matching import maximal_matching_from_proposals
from repro.model.graph import Node, canonical_edge
from repro.model.instance import SteinerForestInstance
from repro.model.solution import ForestSolution
from repro.perf.profiler import maybe_span
from repro.util import UnionFind


class PruningResult:
    """Outcome of the fast pruning routine."""

    def __init__(
        self,
        solution: ForestSolution,
        run: CongestRun,
        num_clusters: int,
        sigma: int,
    ) -> None:
        self.solution = solution
        self.run = run
        self.num_clusters = num_clusters
        self.sigma = sigma

    @property
    def rounds(self) -> int:
        return self.run.rounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PruningResult(W={self.solution.weight}, "
            f"rounds={self.rounds}, clusters={self.num_clusters})"
        )


def _grow_clusters(
    component: Set[Node],
    adjacency: Dict[Node, Set[Node]],
    sigma: int,
) -> Tuple[Dict[Node, Node], int]:
    """Partition one forest component into clusters of ≥ σ nodes (except
    possibly when the merging stalls at component boundaries) via iterated
    matching on cluster proposal graphs (Lemma F.7).

    Returns (node → cluster leader, iterations used).
    """
    leader: Dict[Node, Node] = {v: v for v in component}

    def cluster_sizes() -> Dict[Node, int]:
        sizes: Dict[Node, int] = {}
        for v in component:
            sizes[leader[v]] = sizes.get(leader[v], 0) + 1
        return sizes

    iterations = 0
    max_iterations = max(1, math.ceil(math.log2(max(2, sigma))))
    for _ in range(max_iterations):
        sizes = cluster_sizes()
        small = {c for c, size in sizes.items() if size < sigma}
        if not small:
            break
        iterations += 1
        # Each small cluster proposes an arbitrary (deterministic: smallest)
        # outgoing forest edge.
        proposal: Dict[Node, Node] = {}
        for v in sorted(component, key=repr):
            c = leader[v]
            if c not in small or c in proposal:
                continue
            for u in sorted(adjacency[v], key=repr):
                if leader[u] != c:
                    proposal[c] = leader[u]
                    break
        if not proposal:
            break
        matching, _ = maximal_matching_from_proposals(proposal)
        merged: Set[Node] = set()
        pairs: List[Tuple[Node, Node]] = sorted(matching, key=repr)
        for c, target in sorted(proposal.items(), key=repr):
            if c not in merged and all(c not in pair for pair in pairs):
                pairs.append((c, target))
                merged.add(c)
        uf = UnionFind()
        for a, b in pairs:
            uf.union(a, b)
        remap: Dict[Node, Node] = {}
        for group in uf.sets():
            rep = min(group, key=repr)
            for c in group:
                remap[c] = rep
        for v in component:
            leader[v] = remap.get(leader[v], leader[v])
    return leader, iterations


def default_sigma(instance: SteinerForestInstance) -> int:
    """σ = √min{st, n} (Definition 4.18), rounded down and at least 1.

    Computes the shortest-path diameter s, so callers given σ skip it.
    """
    graph = instance.graph
    t = max(1, instance.num_terminals)
    s = graph.shortest_path_diameter()
    return max(1, math.isqrt(min(s * t, graph.num_nodes)))


def fast_pruning(
    instance: SteinerForestInstance,
    forest: ForestSolution,
    run: Optional[CongestRun] = None,
    sigma: Optional[int] = None,
) -> PruningResult:
    """Prune ``forest`` to the minimal subforest solving ``instance``.

    Simulates/charges the communication of Appendix F.3 and returns the
    (unique) minimal feasible subforest.
    """
    graph = instance.graph
    if run is None:
        run = CongestRun(graph)
    if sigma is None:
        sigma = default_sigma(instance)

    run.set_phase("pruning")
    tree = build_bfs_tree(graph, run)
    # Step 1: make the label set Λ known to all nodes — O(D + k).
    labels = upcast_items(
        tree,
        {
            v: ([instance.label(v)] if instance.label(v) is not None else [])
            for v in graph.nodes
        },
        run,
    )
    broadcast_items(tree, labels, run)

    adjacency: Dict[Node, Set[Node]] = {v: set() for v in graph.nodes}
    for u, v in forest.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    components = forest.components()
    num_clusters = 0
    for component in components:
        # Step 2/3: small components prune locally in O(σ) rounds; larger
        # ones first grow clusters (Lemma F.7, Õ(σ) rounds per iteration).
        if len(component) <= sigma:
            run.charge_rounds(
                min(sigma, len(component)),
                "local pruning inside a small component (Lemma F.6)",
            )
            num_clusters += 1
            continue
        with maybe_span(getattr(run, "profiler", None), "cluster-growing"):
            leader, iterations = _grow_clusters(component, adjacency, sigma)
        clusters = {leader[v] for v in component}
        num_clusters += len(clusters)
        run.charge_rounds(
            iterations * (sigma + 3),
            "matching-based cluster growing (Lemma F.7)",
        )
        # Step 4: contracted cluster forest made global knowledge.
        inter_edges = {
            canonical_edge(leader[u], leader[v])
            for u, v in forest.edges
            if u in component and leader[u] != leader[v]
        }
        run.charge_rounds(
            tree.depth + len(inter_edges),
            "broadcast of the contracted cluster forest (Step 4)",
        )
        # Steps 5–8: pipelined label propagation along the BFS tree; at
        # most k + |F_C| non-redundant messages per node (Lemma F.8).
        run.charge_rounds(
            tree.depth + len(labels) + len(inter_edges),
            "label propagation on the cluster forest (Lemma F.8)",
        )
        # Steps 9–10: intra-cluster minimal subtree selection (Lemma F.6).
        run.charge_rounds(
            sigma + len(labels),
            "intra-cluster subtree selection (Lemma F.6)",
        )

    # The communication above reconstructs exactly the unique minimal
    # feasible subforest; compute it and cross-check the cluster-level
    # selection rule (an inter-cluster edge survives iff some label has
    # terminals on both of its sides within the tree — Lemma F.9).
    with maybe_span(getattr(run, "profiler", None), "minimal-subforest"):
        solution = forest.minimal_subforest(instance)
        _check_cluster_selection(instance, forest, solution)
    return PruningResult(solution, run, num_clusters, sigma)


def _check_cluster_selection(
    instance: SteinerForestInstance,
    forest: ForestSolution,
    solution: ForestSolution,
) -> None:
    """Lemma F.9 invariant: a forest edge is kept iff removing it separates
    two terminals of the same input component.

    One pass per tree: the edge from ``v`` to its parent separates a
    label iff ``v``'s subtree holds some, not all, of its terminals in
    the tree."""
    adjacency: Dict[Node, List[Node]] = {}
    for u, v in forest.edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    labels = instance.labels
    parent: Dict[Node, Node] = {}
    separating: Set[Tuple[Node, Node]] = set()
    for root in sorted(adjacency, key=repr):
        if root in parent:
            continue
        parent[root] = root
        order = [root]  # breadth-first: parents before children
        for u in order:
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    order.append(v)
        assert sum(len(adjacency[u]) for u in order) == 2 * len(order) - 2, (
            f"cluster selection needs a forest: the tree of {root!r} has a cycle"
        )
        for label in {labels[v] for v in order if v in labels}:
            below = {v: int(labels.get(v) == label) for v in order}
            for v in reversed(order[1:]):
                below[parent[v]] += below[v]
            separating.update(
                canonical_edge(v, parent[v])
                for v in order[1:]
                if 0 < below[v] < below[root]
            )
    for u, v in sorted(forest.edges, key=repr):
        kept = (u, v) in solution.edges
        assert kept == ((u, v) in separating), (
            f"cluster selection rule violated at edge ({u!r}, {v!r})"
        )
