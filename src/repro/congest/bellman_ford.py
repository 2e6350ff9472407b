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

Every distance is an int. The relaxation weight of an edge {x, y} is the
reduced weight Ŵ_j of Definition 4.5 on the int grid 1/scale,

    max(0, W·scale − min(W·scale, l(x)) − min(W·scale, l(y))),

for int leftovers l ≥ 0 at ``scale``; the graph's own weights are the case
l ≡ 0, scale = 1.
"""

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

Tag = Hashable


class BellmanFordResult:
    """Outcome of a multi-source Bellman–Ford execution.

    Attributes:
        dist: tentative distance per reached node (from its source), an
            int on the grid 1/scale.
        tag: the source tag (e.g. Voronoi center) per reached node.
        parent: predecessor towards the source (None at sources).
        iterations: number of relaxation rounds executed.
        stabilized: False when the run was cut off by ``max_iterations``.
    """

    def __init__(
        self,
        dist: Dict[Node, int],
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


def _reduced_weight(
    graph: WeightedGraph, leftover: Mapping[Node, int], scale: int
) -> Callable[[Node, Node], int]:
    """Ŵ_j per directed edge, each edge computed once: Ŵ_j is symmetric
    and fixed for the run, while edges relax once per round."""
    lo = leftover.get
    reduced: Dict[Tuple[Node, Node], int] = {}

    def weight(x: Node, y: Node) -> int:
        value = reduced.get((x, y))
        if value is None:
            w = graph.weight(x, y) * scale
            value = max(0, w - min(w, lo(x, 0)) - min(w, lo(y, 0)))
            reduced[x, y] = reduced[y, x] = value
        return value

    return weight


def bellman_ford(
    graph: WeightedGraph,
    sources: Mapping[Node, Tuple[int, Tag]],
    run: CongestRun,
    *,
    leftover: Optional[Mapping[Node, int]] = None,
    scale: int = 1,
    blocked: Optional[AbstractSet[Node]] = None,
    max_iterations: Optional[int] = None,
) -> BellmanFordResult:
    """Run synchronous multi-source Bellman–Ford, charging real rounds.

    Args:
        graph: the network.
        sources: node → (int initial distance, tag). Tags identify
            regions; ties between equal distances are broken by
            (repr(tag), repr(parent)) so the decomposition is
            deterministic, mirroring the paper's lexicographic
            tie-breaking.
        run: ledger to charge rounds/messages against.
        leftover: int leftover l(x) ≥ 0 per node at ``scale`` (absent
            nodes have 0); edges relax the reduced weights Ŵ_j of
            Definition 4.5 instead of the graph weights.
        scale: the int grid 1/scale of the starts, leftovers and
            returned distances; graph weights are multiplied by it.
        blocked: nodes that neither adopt nor forward distances (frozen
            inactive regions; Lemma 4.8 leaves their trees untouched).
        max_iterations: stop (possibly unstabilized) after this many rounds
            — the footnote-2 "run for √n iterations" device.

    Returns a :class:`BellmanFordResult`. Raises ``TypeError`` when a
    start distance is not an int.

    Every ledger runs this one path on ``graph``'s cached topology, with
    each tag's ``repr`` computed once per source. On its own graph, a
    :class:`~repro.perf.npkernels.NumpyCongestRun` runs the relaxation
    as int64 array kernels instead unless a bound check declines.
    Distances, tags, parents, iterations, and the ledger end state are
    identical either way (tests/test_ledger_golden.py,
    tests/test_npkernels.py).
    """
    for v, (d0, _) in sources.items():
        if not isinstance(d0, int):
            raise TypeError(
                f"bellman_ford start distance {d0!r} at node {v!r} is not "
                "an int"
            )
    blocked = blocked or frozenset()
    if graph is run.graph and getattr(run, "npc", None) is not None:
        from repro.perf.npkernels import bellman_ford_numpy

        result = bellman_ford_numpy(
            graph, sources, run, leftover, scale, blocked, max_iterations
        )
        if result is not None:
            return result
    weight = graph.weight
    if leftover or scale != 1:
        weight = _reduced_weight(graph, leftover or {}, scale)

    dist: Dict[Node, int] = {}
    tag: Dict[Node, Tag] = {}
    parent: Dict[Node, Optional[Node]] = {}
    tag_repr: Dict[Node, str] = {}  # repr(tag[v]), carried along with tag[v]
    for v, (d0, source_tag) in sources.items():
        dist[v] = d0
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
        updates: Dict[Node, Tuple[int, str, str, Tag, Node]] = {}
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
    return BellmanFordResult(dist, tag, parent, iterations, not changed)
