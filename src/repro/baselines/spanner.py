"""Spanner-based Steiner forest ([17]; used as the second-stage solver).

The STOC'13 algorithm of Lenzen & Patt-Shamir computes, in
Õ((√n + t)^{1+1/k} + D) rounds, a multiplicative (2k−1)-spanner of the
metric induced on the terminals (plus a Θ̃(√n) sample that keeps detected
paths short), ships it to every node, and solves the instance centrally.
With k = log n the stretch is O(log n) and, combined with the centralized
2-approximate moat-growing solver, the output is an O(log n)-approximation
(Lemma G.15 / Theorem 5.2 use exactly this interface on the F-reduced
instance, whose t̂ ≤ √n terminals give Õ(√n + D) rounds).

Implementation: the terminal metric comes from the terminals' distance rows
(what the distributed construction provides each node with); the
greedy path-spanner is built on the terminal set, solved with
:func:`repro.core.moat.moat_growing`, and the selected spanner edges are
mapped back to least-weight paths in the graph. Communication is charged as
Õ(√n + t + D) with the spanner broadcast simulated for real.
"""

import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import heapq

from repro.congest.bfs import build_bfs_tree
from repro.congest.broadcast import broadcast_items
from repro.congest.run import CongestRun
from repro.core.moat import moat_growing
from repro.model.graph import Edge, Node, WeightedGraph, canonical_edge
from repro.model.instance import SteinerForestInstance
from repro.model.solution import ForestSolution


class SpannerResult:
    """Outcome of the spanner baseline."""

    def __init__(
        self,
        solution: ForestSolution,
        run: CongestRun,
        spanner_edges: FrozenSet[Tuple[Node, Node]],
        stretch: int,
    ) -> None:
        self.solution = solution
        self.run = run
        self.spanner_edges = spanner_edges
        self.stretch = stretch

    @property
    def rounds(self) -> int:
        return self.run.rounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpannerResult(W={self.solution.weight}, "
            f"rounds={self.rounds}, stretch≤{self.stretch})"
        )


def greedy_spanner(
    points: List[Node],
    metric: Dict[Node, Dict[Node, int]],
    stretch: int,
) -> Set[Tuple[Node, Node]]:
    """Greedy multiplicative spanner of a finite metric.

    Scans point pairs by ascending distance; a pair enters the spanner iff
    its current spanner distance exceeds ``stretch`` times its metric
    distance. The result has O(p^{1+2/(stretch+1)}) edges and stretch
    ``stretch`` (classic greedy guarantee).
    """
    pairs = sorted(
        (
            (metric[u][v], repr(u), repr(v), u, v)
            for i, u in enumerate(points)
            for v in points[i + 1:]
        ),
    )
    adjacency: Dict[Node, List[Tuple[Node, int]]] = {p: [] for p in points}
    edges: Set[Tuple[Node, Node]] = set()

    def spanner_distance(a: Node, b: Node, cutoff: int) -> float:
        dist = {a: 0}
        heap: List[Tuple[int, str, Node]] = [(0, repr(a), a)]
        while heap:
            d, _, x = heapq.heappop(heap)
            if x == b:
                return d
            if d > dist.get(x, d):
                continue
            for y, w in adjacency[x]:
                nd = d + w
                if nd <= cutoff and nd < dist.get(y, nd + 1):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, repr(y), y))
        return math.inf

    for d, _, _, u, v in pairs:
        if spanner_distance(u, v, stretch * d) > stretch * d:
            adjacency[u].append((v, d))
            adjacency[v].append((u, d))
            edges.add((u, v))
    return edges


def spanner_steiner_forest(
    instance: SteinerForestInstance,
    run: Optional[CongestRun] = None,
    stretch: Optional[int] = None,
) -> SpannerResult:
    """Solve a DSF-IC instance with the [17]-style spanner algorithm.

    Returns an O(stretch)-approximate solution; with the default
    stretch = 2⌈log₂ n⌉ − 1 this is the paper's O(log n) guarantee.
    """
    graph = instance.graph
    if run is None:
        run = CongestRun(graph)
    n = graph.num_nodes
    if stretch is None:
        stretch = 2 * max(1, math.ceil(math.log2(max(2, n)))) - 1

    run.set_phase("spanner")
    terminals = sorted(instance.terminals, key=repr)
    if len(terminals) <= 1:
        return SpannerResult(
            ForestSolution(graph, []), run, frozenset(), stretch
        )

    metric = graph.all_pairs_distances(terminals)
    spanner = greedy_spanner(terminals, metric, stretch)

    # Charge the distributed construction: Õ(√n + t) for the metric /
    # spanner computation plus a real broadcast of the spanner edges.
    tree = build_bfs_tree(graph, run)
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    run.charge_rounds(
        (math.isqrt(n) + len(terminals)) * log_n,
        "terminal-metric spanner construction ([17])",
    )
    broadcast_items(
        tree, sorted((repr(u), repr(v)) for u, v in spanner), run
    )

    # Solve centrally on the spanner graph (weights are true distances).
    spanner_graph = WeightedGraph(
        terminals,
        [(u, v, metric[u][v]) for u, v in spanner],
        validate=False,
    )
    spanner_instance = SteinerForestInstance(
        spanner_graph,
        {v: instance.label(v) for v in terminals},
    )
    central = moat_growing(spanner_instance)

    # Map selected spanner edges back to least-weight paths in G; the
    # token-passing along them is bounded by the max hop count.
    edges: Set[Edge] = set()
    max_hops = 1
    for u, v in central.solution.edges:
        path = graph.shortest_path(u, v)
        edges.update(canonical_edge(a, b) for a, b in zip(path, path[1:]))
        max_hops = max(max_hops, len(path))
    run.charge_rounds(max_hops, "mapping spanner edges to graph paths")
    solution = ForestSolution(graph, edges)
    return SpannerResult(
        solution, run, frozenset(spanner), stretch
    )
