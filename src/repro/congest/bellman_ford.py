"""Distributed (multi-source) Bellman–Ford.

The deterministic algorithm computes Voronoi decompositions w.r.t. reduced
weights with active moats as sources (Lemma 4.8); the randomized algorithm
computes the Voronoi decomposition w.r.t. the sampled set S (Lemma G.2) and
the footnote-2 estimation of ``s``. All are instances of multi-source
Bellman–Ford: every source starts with an initial distance and a *tag* (the
region/center identity); in each round, nodes whose tentative distance
improved announce (distance, tag) to all neighbors.

The iteration count until stabilization is at most the maximum hop length of
a relevant least-weight path — the quantity ``s`` bounds — so the measured
round count is exactly the paper's cost for these steps.
"""

import math
from fractions import Fraction
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.congest.run import CongestRun
from repro.model.graph import Node, WeightedGraph

Number = object  # int or Fraction
Tag = Hashable


class BellmanFordResult:
    """Outcome of a multi-source Bellman–Ford execution.

    Attributes:
        dist: tentative distance per reached node (from its source).
        tag: the source tag (e.g. Voronoi center) per reached node.
        parent: predecessor towards the source (None at sources).
        iterations: number of relaxation rounds executed.
        stabilized: False when the run was cut off by ``max_iterations``.
    """

    def __init__(
        self,
        dist: Dict[Node, Number],
        tag: Dict[Node, Tag],
        parent: Dict[Node, Optional[Node]],
        iterations: int,
        stabilized: bool,
    ) -> None:
        self.dist = dist
        self.tag = tag
        self.parent = parent
        self.iterations = iterations
        self.stabilized = stabilized

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BellmanFordResult(reached={len(self.dist)}, "
            f"iterations={self.iterations}, stabilized={self.stabilized})"
        )


def bellman_ford(
    graph: WeightedGraph,
    sources: Mapping[Node, Tuple[Number, Tag]],
    run: CongestRun,
    edge_weight: Optional[Callable[[Node, Node], Number]] = None,
    blocked: Optional[AbstractSet[Node]] = None,
    max_iterations: Optional[int] = None,
) -> BellmanFordResult:
    """Run synchronous multi-source Bellman–Ford, charging real rounds.

    Args:
        graph: the network.
        sources: node → (initial distance, tag). Tags identify regions;
            ties between equal distances are broken by (repr(tag), repr
            (parent)) so the decomposition is deterministic, mirroring the
            paper's lexicographic tie-breaking.
        run: ledger to charge rounds/messages against.
        edge_weight: override for the relaxation weight of an edge (used
            with the *reduced* weights Ŵ_j of Definition 4.5); defaults to
            the graph weight. Must be non-negative; may return Fractions.
        blocked: nodes that neither adopt nor forward distances (frozen
            inactive regions; Lemma 4.8 leaves their trees untouched).
        max_iterations: stop (possibly unstabilized) after this many rounds
            — the footnote-2 "run for √n iterations" device.

    Returns a :class:`BellmanFordResult`.

    Every ledger runs this one path on ``graph``'s cached topology, with
    each tag's ``repr`` computed once per source, and the graph's own
    weights relax as ints (everything scaled to the start distances'
    common denominator). On its own graph, a
    :class:`~repro.perf.npkernels.NumpyCongestRun` runs the relaxation
    as scaled-int64 array kernels instead when the workload scales
    exactly. Distances, tags, parents, iterations, and the ledger end
    state are identical either way (tests/test_ledger_golden.py,
    tests/test_npkernels.py).
    """
    blocked = blocked or frozenset()
    if graph is run.graph and getattr(run, "npc", None) is not None:
        from repro.perf.npkernels import bellman_ford_numpy

        result = bellman_ford_numpy(
            graph, sources, run, edge_weight, blocked, max_iterations
        )
        if result is not None:
            return result
    # The graph's own weights relax as ints on the start distances'
    # common grid; a custom weight keeps its own arithmetic (grid 1).
    denom = 1 if edge_weight else math.lcm(
        *(Fraction(d0).denominator for d0, _ in sources.values())
    )
    weight = edge_weight or (
        graph.weight if denom == 1 else lambda u, v: graph.weight(u, v) * denom
    )

    dist: Dict[Node, Number] = {}  # scaled by denom
    tag: Dict[Node, Tag] = {}
    parent: Dict[Node, Optional[Node]] = {}
    tag_repr: Dict[Node, str] = {}  # repr(tag[v]), carried along with tag[v]
    for v, (d0, source_tag) in sources.items():
        start = Fraction(d0) * denom
        dist[v] = start.numerator if start.denominator == 1 else start
        tag[v] = source_tag
        parent[v] = None
        tag_repr[v] = repr(source_tag)

    # Sources never change their (distance, tag, parent): the paper's
    # decompositions extend existing trees without touching them
    # (Lemma 4.8: "the old trees are not touched, but simply extended").
    immutable = frozenset(sources)

    reprs = graph.repr_of
    changed: Set[Node] = set(sources)
    iterations = 0
    while changed:
        if max_iterations is not None and iterations >= max_iterations:
            break
        iterations += 1
        announcers = sorted(changed, key=reprs.__getitem__)
        updates: Dict[Node, Tuple[Number, str, str, Tag, Node]] = {}
        for u in announcers:
            du, tu, tu_repr, u_repr = dist[u], tag[u], tag_repr[u], reprs[u]
            for v in graph.neighbors(u):
                if v in blocked or v in immutable:
                    continue
                cand_dist = du + weight(u, v)
                current = updates.get(v)
                if current is None or (cand_dist, tu_repr, u_repr) < current[:3]:
                    updates[v] = (cand_dist, tu_repr, u_repr, tu, u)
        run.tick_neighbors(graph, announcers)
        changed = set()
        for v, (cand_dist, cand_tag_repr, _, new_tag, new_parent) in (
            updates.items()
        ):
            if v in dist:
                # Strictly smaller (dist, tag) only — comparing the parent
                # as well would let equal-distance updates flip parents
                # forever across zero-weight (fully covered) edges.
                if (cand_dist, cand_tag_repr) >= (dist[v], tag_repr[v]):
                    continue
            dist[v] = cand_dist
            tag[v] = new_tag
            tag_repr[v] = cand_tag_repr
            parent[v] = new_parent
            changed.add(v)
    for v, d in dist.items():  # scaled ints back to exact Fractions
        if isinstance(d, int):
            dist[v] = Fraction(d, denom)
    return BellmanFordResult(dist, tag, parent, iterations, not changed)
