"""The F-reduced instance (Definition 5.1, Lemmas G.11–G.14).

After the first stage with a truncated virtual tree (s > √n), every input
component is split by the selected edge set F into connected chunks, each
hanging off a node of S. Contracting, for each v ∈ S, the terminal set

    T_v = { w ∈ T : v is the closest S node to w in (V, F),
                    within Õ(√n) hops }

into a super-terminal yields a new instance with at most |S| = √n terminals
that captures exactly the remaining connectivity demands: two super-
terminals share a (new) label iff their original labels are connected in
the helper graph (Λ, E_Λ) linking labels that co-occur in some T_v.

The reduced optimum is at most the original optimum (Lemma G.14), and any
solution of the reduced instance, mapped back through its inducing edges
and united with F, solves the original instance (Lemma G.13).

Robustness note: the paper argues that w.h.p. every terminal is either
captured by some T_v or fully resolved by F (Lemma G.9). To stay feasible
on every run — not just the high-probability event — unresolved terminals
that fall outside every T_v join the reduced instance as singleton
super-terminals; on w.h.p. executions this set is empty.
"""

import math
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.congest.bellman_ford import bellman_ford
from repro.congest.bfs import build_bfs_tree
from repro.congest.broadcast import broadcast_items, upcast_items
from repro.congest.run import CongestRun
from repro.model.graph import Edge, Node, WeightedGraph, canonical_edge
from repro.model.instance import SteinerForestInstance
from repro.randomized.selection import FirstStageResult
from repro.util import UnionFind

Label = Hashable


class ReducedInstance:
    """The F-reduced instance plus the bookkeeping to map solutions back.

    Attributes:
        instance: the DSF-IC instance over the reduced graph Ĝ.
        cluster_of: original node → reduced node (super-terminal
            representative for captured terminals, itself for V_r nodes).
        inducing_edge: reduced edge → the minimum-weight original edge that
            realizes it (Definition 5.1's argmin).
    """

    def __init__(
        self,
        instance: SteinerForestInstance,
        cluster_of: Dict[Node, Node],
        inducing_edge: Dict[Edge, Edge],
    ) -> None:
        self.instance = instance
        self.cluster_of = cluster_of
        self.inducing_edge = inducing_edge

    def map_back(self, reduced_edges) -> Set[Edge]:
        """Translate reduced-graph edges into their inducing graph edges."""
        return {
            self.inducing_edge[canonical_edge(u, v)] for u, v in reduced_edges
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReducedInstance(n̂={self.instance.graph.num_nodes}, "
            f"t̂={self.instance.num_terminals})"
        )


def build_reduced_instance(
    instance: SteinerForestInstance,
    first_stage: FirstStageResult,
    s_nodes: Set[Node],
    run: CongestRun,
) -> Optional[ReducedInstance]:
    """Construct the F-reduced instance (Õ(√n + k + D) rounds, Lemma G.12).

    Returns None when no demands remain (every label resolved by F).
    """
    graph = instance.graph
    n = graph.num_nodes

    # T_v assignment: hop-distance Voronoi w.r.t. S inside (V, F), capped at
    # Õ(√n) hops — a real Bellman–Ford over the F-subgraph (Corollary G.11).
    run.set_phase("reduction")
    f_subgraph = WeightedGraph(
        graph.nodes,
        [(u, v, 1) for u, v in first_stage.edges],
        validate=False,
    )
    hop_cap = max(1, math.isqrt(n) * max(1, math.ceil(math.log2(max(2, n)))))
    voronoi = bellman_ford(
        f_subgraph,
        {v: (0, v) for v in sorted(s_nodes, key=repr)},
        run,
        max_iterations=hop_cap,
    )

    cluster_of: Dict[Node, Node] = {}
    members: Dict[Node, Set[Node]] = {v: set() for v in s_nodes}
    for w in instance.terminals:
        anchor = voronoi.tag.get(w)
        if anchor is not None:
            cluster_of[w] = anchor
            members[anchor].add(w)

    # Helper graph (Λ, E_Λ): labels co-occurring in one T_v are equivalent.
    label_uf = UnionFind()
    for anchor, terminals in members.items():
        labels_here = sorted(
            {instance.label(w) for w in terminals}, key=repr
        )
        for a, b in zip(labels_here, labels_here[1:]):
            label_uf.union(a, b)
    for label in set(instance.labels.values()):
        label_uf.add(label)

    def label_component(label: Label) -> Label:
        return label_uf.find(label)

    # Unresolved terminals outside every T_v become singleton
    # super-terminals (robustness; empty w.h.p. — Lemma G.9).
    stray_terminals = [
        w
        for w in sorted(instance.terminals, key=repr)
        if w not in cluster_of and instance.label(w) not in first_stage.resolved
    ]

    # Reduced node set: one representative per non-empty T_v, plus V_r.
    reduced_labels: Dict[Node, Label] = {}
    for anchor, terminals in sorted(members.items(), key=lambda kv: repr(kv[0])):
        if not terminals:
            continue
        rep = ("cluster", anchor)
        some_label = instance.label(min(terminals, key=repr))
        reduced_labels[rep] = label_component(some_label)
    for w in stray_terminals:
        reduced_labels[w] = label_component(instance.label(w))

    # Drop labels that occur on a single reduced terminal — no demand left.
    label_counts: Dict[Label, int] = {}
    for lab in reduced_labels.values():
        label_counts[lab] = label_counts.get(lab, 0) + 1
    reduced_labels = {
        node: lab
        for node, lab in reduced_labels.items()
        if label_counts[lab] >= 2
    }
    if not reduced_labels:
        return None

    # Build Ĝ: contract each non-empty T_v; keep all other nodes.
    def reduced_node(x: Node) -> Node:
        anchor = cluster_of.get(x)
        return ("cluster", anchor) if anchor is not None else x

    reduced_nodes: Set[Node] = {reduced_node(x) for x in graph.nodes}
    best_edge: Dict[Edge, Tuple[int, Edge]] = {}
    for u, v, w in graph.edges():
        ru, rv = reduced_node(u), reduced_node(v)
        if ru == rv:
            continue
        key = canonical_edge(ru, rv)
        cand = (w, canonical_edge(u, v))
        if key not in best_edge or cand < best_edge[key]:
            best_edge[key] = cand
    reduced_graph = WeightedGraph(
        reduced_nodes,
        [(a, b, wc[0]) for (a, b), wc in best_edge.items()],
        validate=False,
    )
    reduced = SteinerForestInstance(reduced_graph, reduced_labels)

    # Lemma G.12's coordination: broadcast of S and of the helper-graph
    # forest over the BFS tree — O(√n + k + D), simulated for real.
    tree = build_bfs_tree(graph, run)
    forest_items = upcast_items(
        tree,
        {
            min(terminals, key=repr): [
                (repr(anchor), repr(instance.label(w)))
                for w in sorted(terminals, key=repr)[:2]
            ]
            for anchor, terminals in members.items()
            if terminals
        },
        run,
    )
    broadcast_items(tree, forest_items, run)

    return ReducedInstance(
        reduced,
        cluster_of,
        {edge: wc[1] for edge, wc in best_edge.items()},
    )
