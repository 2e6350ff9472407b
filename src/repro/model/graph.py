"""Weighted undirected graphs and the metrics used by the paper.

The CONGEST model of Section 2 assumes a connected graph ``G = (V, E, W)``
with positive, polynomially bounded integer weights. Three graph parameters
drive all running-time bounds:

* ``D``  — the *unweighted* diameter (max hop distance),
* ``WD`` — the *weighted* diameter (max weighted distance),
* ``s``  — the *shortest-path diameter*: the maximum over node pairs of the
  minimum number of hops among all least-weight paths between the pair.

This module provides :class:`WeightedGraph`, a small immutable adjacency
structure with deterministic shortest-path computations (ties between
least-weight paths are broken first by hop count, then lexicographically by
predecessor identifier, mirroring the paper's "different paths have different
weight, ties broken lexicographically" convention), plus weighted balls with
fractionally contained edges as used by moat growing.
"""

import heapq
from array import array
from fractions import Fraction
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx

from repro.exceptions import GraphValidationError

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, int]


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical (sorted) representation of the undirected edge."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


class Ball:
    """A weighted ball ``B_G(v, r)`` with fractionally contained edges.

    Following Section 2 of the paper, the ball of radius ``r`` around ``v``
    contains every node at weighted distance at most ``r`` from ``v`` and, for
    an edge ``{w, u}`` with ``w`` inside the ball, the fraction
    ``(r - wd(v, w)) / W(w, u)`` of the edge closest to ``w``.

    Attributes:
        center: the ball's center node.
        radius: the (possibly fractional) radius.
        nodes: the set of nodes inside the ball.
        edge_fractions: mapping from canonical edge to the fraction of the
            edge's weight contained in the ball, as a ``Fraction`` in [0, 1].
    """

    __slots__ = ("center", "radius", "nodes", "edge_fractions")

    def __init__(
        self,
        center: Node,
        radius: Fraction,
        nodes: FrozenSet[Node],
        edge_fractions: Mapping[Edge, Fraction],
    ) -> None:
        self.center = center
        self.radius = radius
        self.nodes = nodes
        self.edge_fractions = dict(edge_fractions)

    def contains_node(self, v: Node) -> bool:
        return v in self.nodes

    def covered_weight(self) -> Fraction:
        """Total edge weight (counting fractions) inside the ball."""
        return sum(self.edge_fractions.values(), Fraction(0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Ball(center={self.center!r}, radius={self.radius}, "
            f"|nodes|={len(self.nodes)})"
        )


class WeightedGraph:
    """An undirected, connected graph with positive integer edge weights.

    Nodes may be arbitrary hashable, mutually comparable values; the test
    suite and generators use integers, matching the paper's O(log n)-bit
    identifiers. The structure is immutable after construction, which lets
    expensive metrics (``D``, ``WD``, ``s``), each source's shortest-path
    tree, and the topology the CONGEST primitives and ledgers walk (node
    reprs, sorted neighbor tuples, canonical edges) be cached.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[WeightedEdge],
        validate: bool = True,
    ) -> None:
        self._adj: Dict[Node, Dict[Node, int]] = {v: {} for v in nodes}
        for u, v, w in edges:
            if u == v:
                raise GraphValidationError(f"self-loop on node {u!r}")
            if u not in self._adj or v not in self._adj:
                raise GraphValidationError(
                    f"edge ({u!r}, {v!r}) references unknown node"
                )
            if v in self._adj[u] and self._adj[u][v] != w:
                raise GraphValidationError(
                    f"conflicting weights for edge ({u!r}, {v!r})"
                )
            self._adj[u][v] = w
            self._adj[v][u] = w
        self._repr = {v: repr(v) for v in self._adj}
        self._nodes: Tuple[Node, ...] = tuple(
            sorted(self._adj, key=self._repr.__getitem__)
        )
        self._rank = {v: r for r, v in enumerate(self._nodes)}
        self._rank_adj: Optional[List[List[Tuple[int, int]]]] = None
        self._neighbors: Dict[Node, Tuple[Node, ...]] = {}
        self._edges: Optional[Tuple[WeightedEdge, ...]] = None
        self._canon: Optional[Dict[Tuple[Node, Node], Edge]] = None
        self._out_edges: Dict[Node, Tuple[Edge, ...]] = {}
        self._sssp_cache: Dict[Node, Tuple[Dict[Node, int], array, array]] = {}
        self._metric_cache: Dict[str, int] = {}
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[WeightedEdge], validate: bool = True
    ) -> "WeightedGraph":
        """Build a graph whose node set is implied by the edge list."""
        edges = list(edges)
        nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
        return cls(nodes, edges, validate=validate)

    @classmethod
    def from_networkx(cls, graph: nx.Graph, weight: str = "weight") -> "WeightedGraph":
        """Build from a networkx graph; missing weights default to 1."""
        edges = [
            (u, v, int(data.get(weight, 1)))
            for u, v, data in graph.edges(data=True)
        ]
        return cls(graph.nodes(), edges)

    def to_networkx(self) -> nx.Graph:
        """Export to a networkx graph with a ``weight`` attribute."""
        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        for u, v, w in self.edges():
            graph.add_edge(u, v, weight=w)
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in deterministic (sorted) order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def repr_of(self) -> Mapping[Node, str]:
        """node → ``repr(node)``, the key of every deterministic tie-break
        (computed once; do not mutate)."""
        return self._repr

    def edges(self) -> List[WeightedEdge]:
        """All edges as (u, v, weight) with canonical endpoint order."""
        if self._edges is None:
            reprs = self._repr
            result: List[WeightedEdge] = []
            for u in self._nodes:
                ru = reprs[u]
                for v, w in self._adj[u].items():
                    if ru <= reprs[v]:  # u is the canonical first endpoint
                        result.append((u, v, w))
            self._edges = tuple(result)
        return list(self._edges)

    def edge_set(self) -> FrozenSet[Edge]:
        """All edges as a frozen set of canonical pairs."""
        return frozenset((u, v) for u, v, _ in self.edges())

    def has_node(self, v: Node) -> bool:
        return v in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Node) -> Tuple[Node, ...]:
        """Neighbors of ``v`` in deterministic (repr) order, cached."""
        cached = self._neighbors.get(v)
        if cached is None:
            cached = self._neighbors[v] = tuple(
                sorted(self._adj[v], key=self._repr.__getitem__)
            )
        return cached

    def canonical_pairs(self) -> Mapping[Tuple[Node, Node], Edge]:
        """Directed pair ``(u, v)`` → canonical edge, for both directions
        of every edge; non-edges are absent (built once)."""
        if self._canon is None:
            canon: Dict[Tuple[Node, Node], Edge] = {}
            for u, v, _ in self.edges():
                edge = (u, v)
                canon[edge] = edge
                canon.setdefault((v, u), edge)
            self._canon = canon
        return self._canon

    def out_edges(self, v: Node) -> Tuple[Edge, ...]:
        """The canonical edges from ``v`` to each of its neighbors, in
        :meth:`neighbors` order (cached)."""
        cached = self._out_edges.get(v)
        if cached is None:
            canon = self.canonical_pairs()
            cached = self._out_edges[v] = tuple(
                canon[(v, u)] for u in self.neighbors(v)
            )
        return cached

    def adjacency(self, v: Node) -> Mapping[Node, int]:
        """The neighbor → weight mapping of ``v``, unsorted.

        A read-only view of the internal adjacency, for topology
        compilers that impose their own order (sorting here would
        redo per-call what they do once); everything else should use
        :meth:`neighbors`, whose order is the deterministic contract.
        """
        return MappingProxyType(self._adj[v])

    def degree(self, v: Node) -> int:
        return len(self._adj[v])

    def weight(self, u: Node, v: Node) -> int:
        """Weight of the edge {u, v}; raises KeyError if absent."""
        return self._adj[u][v]

    def total_weight(self) -> int:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def edge_weight_sum(self, edges: Iterable[Edge]) -> int:
        """Total weight of the given edge set."""
        return sum(self._adj[u][v] for u, v in edges)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the Section 2 model assumptions.

        Raises GraphValidationError if the graph is empty, has non-positive
        or non-integer weights, or is disconnected.
        """
        if not self._nodes:
            raise GraphValidationError("graph has no nodes")
        for u, v, w in self.edges():
            if not isinstance(w, int) or isinstance(w, bool):
                raise GraphValidationError(
                    f"edge ({u!r}, {v!r}) has non-integer weight {w!r}"
                )
            if w <= 0:
                raise GraphValidationError(
                    f"edge ({u!r}, {v!r}) has non-positive weight {w}"
                )
        if not self.is_connected():
            raise GraphValidationError("graph is not connected")

    def is_connected(self) -> bool:
        """Whether the graph is connected (single component)."""
        if not self._nodes:
            return False
        seen = {self._nodes[0]}
        stack = [self._nodes[0]]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self._nodes)

    # ------------------------------------------------------------------
    # Shortest paths (deterministic tie-breaking)
    # ------------------------------------------------------------------

    def _sssp(self, source: Node) -> Tuple[Dict[Node, int], array, array]:
        """The cached shortest-path tree of ``source``: (dist, hops, parents).

        ``dist`` maps each reachable node to wd(source, v), in the order the
        search first reaches it. ``hops`` (min hops among least-weight
        paths) and ``parents`` (-1: none) are indexed by rank, the position
        in :attr:`nodes`, which is repr order. Settling in (dist, hops,
        rank) order fixes a node's hops before it relaxes any neighbor.
        """
        cached = self._sssp_cache.get(source)
        if cached is not None:
            return cached
        if self._rank_adj is None:
            rank = self._rank
            self._rank_adj = [
                [(rank[v], w) for v, w in self._adj[u].items()]
                for u in self._nodes
            ]
        adj = self._rank_adj
        n = len(self._nodes)
        s = self._rank[source]
        dist: List[Optional[int]] = [None] * n
        hops = [-1] * n
        parent = [-1] * n
        dist[s] = hops[s] = 0
        reached = [s]
        done = bytearray(n)
        heap = [(0, 0, s)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, h, u = pop(heap)
            if done[u]:
                continue
            done[u] = 1
            h += 1
            for v, w in adj[u]:
                nd = d + w
                dv = dist[v]
                if dv is None:
                    reached.append(v)
                elif nd > dv or nd == dv and (h, u) >= (hops[v], parent[v]):
                    continue
                dist[v] = nd
                hops[v] = h
                parent[v] = u
                push(heap, (nd, h, v))
        nodes = self._nodes
        cached = (
            {nodes[r]: dist[r] for r in reached},
            array("i", hops),
            array("i", parent),
        )
        self._sssp_cache[source] = cached
        return cached

    def dijkstra(
        self, source: Node
    ) -> Tuple[Dict[Node, int], Dict[Node, Optional[Node]]]:
        """Single-source shortest paths with deterministic tie-breaking.

        Among least-weight paths, prefers fewer hops, then the
        lexicographically smallest predecessor. Returns fresh
        (distances, parents) dicts; ``parents[source] is None``.
        """
        dist, _, parent = self._sssp(source)
        nodes, rank = self._nodes, self._rank
        parents: Dict[Node, Optional[Node]] = {
            v: nodes[parent[rank[v]]] for v in dist
        }
        parents[source] = None
        return dict(dist), parents

    def distance(self, u: Node, v: Node) -> int:
        """Weighted distance wd(u, v)."""
        return self._sssp(u)[0][v]

    def shortest_path(self, u: Node, v: Node) -> List[Node]:
        """A deterministic least-weight path from ``u`` to ``v`` (node list)."""
        dist, _, parent = self._sssp(u)
        if v not in dist:
            raise GraphValidationError(f"{v!r} unreachable from {u!r}")
        path = [v]
        r = parent[self._rank[v]]
        while r >= 0:
            path.append(self._nodes[r])
            r = parent[r]
        path.reverse()
        return path

    @staticmethod
    def path_edges(path: Sequence[Node]) -> List[Edge]:
        """Canonical edge list of a node path."""
        return [canonical_edge(a, b) for a, b in zip(path, path[1:])]

    def path_weight(self, path: Sequence[Node]) -> int:
        """Total weight of a node path."""
        return sum(self._adj[a][b] for a, b in zip(path, path[1:]))

    def all_pairs_distances(self) -> Dict[Node, Dict[Node, int]]:
        """All-pairs weighted distances: source → its cached distance row."""
        return {v: self._sssp(v)[0] for v in self._nodes}

    def min_hop_shortest_path_hops(self, source: Node) -> Dict[Node, int]:
        """For each node, the min hop count among least-weight paths from
        ``source``, in order of (distance, repr).

        This is the inner quantity of the shortest-path diameter ``s``.
        """
        dist, hops, _ = self._sssp(source)
        rank = self._rank
        reached = [v for v in self._nodes if v in dist]
        return {
            v: hops[rank[v]] for v in sorted(reached, key=dist.__getitem__)
        }

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------

    def unweighted_diameter(self) -> int:
        """D — the hop diameter of the graph (cached)."""
        if "D" not in self._metric_cache:
            best = 0
            for source in self._nodes:
                level = {source: 0}
                frontier = [source]
                depth = 0
                while frontier:
                    depth += 1
                    nxt = []
                    for u in frontier:
                        for v in self._adj[u]:
                            if v not in level:
                                level[v] = depth
                                nxt.append(v)
                    frontier = nxt
                best = max(best, max(level.values()))
            self._metric_cache["D"] = best
        return self._metric_cache["D"]

    def weighted_diameter(self) -> int:
        """WD — the maximum weighted distance between any node pair (cached)."""
        if "WD" not in self._metric_cache:
            apd = self.all_pairs_distances()
            self._metric_cache["WD"] = max(
                max(row.values()) for row in apd.values()
            )
        return self._metric_cache["WD"]

    def shortest_path_diameter(self) -> int:
        """s — max over pairs of min hops among least-weight paths (cached)."""
        if "s" not in self._metric_cache:
            self._metric_cache["s"] = max(
                max(self._sssp(v)[1]) for v in self._nodes
            )
        return self._metric_cache["s"]

    # ------------------------------------------------------------------
    # Weighted balls (moat geometry)
    # ------------------------------------------------------------------

    def ball(self, center: Node, radius: Fraction) -> Ball:
        """The weighted ball ``B_G(center, radius)`` with fractional edges.

        See Section 2 of the paper: an edge {w, u} with ``w`` inside the ball
        contributes the fraction of its weight covered by the remaining
        radius at ``w`` (from both endpoints if both are inside).
        """
        radius = Fraction(radius)
        dist = self._sssp(center)[0]
        nodes = frozenset(v for v, d in dist.items() if d <= radius)
        edge_fractions: Dict[Edge, Fraction] = {}
        for u, v, w in self.edges():
            covered = Fraction(0)
            if u in nodes:
                covered += min(Fraction(w), radius - dist[u])
            if v in nodes:
                covered += min(Fraction(w), radius - dist[v])
            covered = min(covered, Fraction(w))
            if covered > 0:
                edge_fractions[(u, v)] = covered / w
        return Ball(center, radius, nodes, edge_fractions)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.num_nodes}, m={self.num_edges})"
