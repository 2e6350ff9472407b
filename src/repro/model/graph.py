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
    TYPE_CHECKING,
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

if TYPE_CHECKING:  # numpy is optional: only the key-matrix code imports it
    import numpy as np

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, int]

#: Node counts at which :meth:`WeightedGraph._key_matrix` computes every
#: (distance, hops) pair in one O(n^3) numpy pass, which answers ``s``,
#: ``WD``, distance rows and (once computed) paths instead of n Python
#: searches. Measured against them on gnp, torus and sparse gnp graphs
#: (CPython 3.11, numpy 2.4, 2-core x86 VM), the pass plus a dict per
#: row ran 0.7-0.9x as fast at n = 24, 1.4-2.2x at n = 32, 2.5-4.2x at
#: n = 256 and 512, 1.2-2.0x at n = 768 and 1.05-1.6x at n = 1024.
_FILL_MIN_N = 32
_FILL_MAX_N = 768


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
        self._all_out_edges: Optional[Tuple[Edge, ...]] = None
        self._sssp_cache: Dict[Node, Tuple[Dict[Node, int], array, array]] = {}
        self._metric_cache: Dict[str, int] = {}
        self._keys: Optional["np.ndarray"] = None  # see _key_matrix
        self._edge_key_arrays: Optional[Tuple["np.ndarray", ...]] = None
        self._key_parent_rows: Dict[int, array] = {}  # see _key_parents
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

    @property
    def rank_of(self) -> Mapping[Node, int]:
        """node → its index in :attr:`nodes`, so ranks order as reprs do
        (nodes of equal repr get distinct ranks; do not mutate)."""
        return self._rank

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

    def all_out_edges(self) -> Tuple[Edge, ...]:
        """Every node's :meth:`out_edges`, in node order (cached)."""
        if self._all_out_edges is None:
            self._all_out_edges = tuple(e for v in self._nodes for e in self.out_edges(v))
        return self._all_out_edges

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

    def _rank_adjacency(self) -> List[List[Tuple[int, int]]]:
        """Per rank, its (neighbor rank, weight) pairs in adjacency order."""
        if self._rank_adj is None:
            rank = self._rank
            self._rank_adj = [
                [(rank[v], w) for v, w in self._adj[u].items()]
                for u in self._nodes
            ]
        return self._rank_adj

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
        adj = self._rank_adjacency()
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

    def _key_matrix(self) -> Optional["np.ndarray"]:
        """The n×n C int matrix ``K[s, v] = wd(s, v)·2n + hops(s, v)``,
        from one numpy Floyd–Warshall pass (cached), or None.

        None unless :data:`_FILL_MIN_N` ≤ n ≤ :data:`_FILL_MAX_N`, the
        graph is connected with positive int weights whose keys fit a C
        int, and numpy imports; callers then use :meth:`_sssp`. Each
        edge is keyed ``w·2n + 1``. A least-weight path with fewest hops
        is simple, so two of them sum to fewer than 2n hops and a sum
        never carries into the distance digit: the minimum key is
        exactly :meth:`_sssp`'s (dist, hops) pair.
        """
        if self._keys is not None:
            return self._keys
        n = len(self._nodes)
        if not _FILL_MIN_N <= n <= _FILL_MAX_N:
            return None
        try:
            import numpy as np
        except ImportError:
            return None
        weights = [w for row in self._rank_adjacency() for _, w in row]
        inf = int(np.iinfo(np.intc).max) // 2  # inf + inf still fits
        if (
            not all(type(w) is int and w > 0 for w in weights)
            or (n - 1) * max(weights) * 2 * n + n >= inf
            or not self.is_connected()
        ):
            return None
        keys = np.full((n, n), inf, dtype=np.intc)
        src, dst, edge_key, _ = self._edge_keys()
        keys[src, dst] = edge_key
        np.fill_diagonal(keys, 0)
        tmp = np.empty_like(keys)
        for k in range(n):
            np.add(keys[:, k, None], keys[k], out=tmp)
            np.minimum(keys, tmp, out=keys)
        self._keys = keys
        return keys

    def _edge_keys(
        self,
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """Every directed edge, in :meth:`_rank_adjacency` order (cached):
        source ranks, target ranks, keys ``w·2n + 1``, and the offset of
        each source's first edge."""
        if self._edge_key_arrays is None:
            import numpy as np

            adj = self._rank_adjacency()
            degree = [len(row) for row in adj]
            src = np.repeat(np.arange(len(adj)), degree)
            dst = np.array([v for row in adj for v, _ in row], dtype=np.intc)
            weights = np.array([w for row in adj for _, w in row], dtype=np.intc)
            starts = np.zeros(len(adj), dtype=np.intp)
            np.cumsum(degree[:-1], out=starts[1:])
            self._edge_key_arrays = (
                src, dst, weights * (2 * len(adj)) + 1, starts
            )
        return self._edge_key_arrays

    def _key_parents(self, source: Node) -> array:
        """``source``'s parent per rank (-1: none), read off the already
        computed :meth:`_key_matrix` (cached): the least rank ``y`` whose
        key plus the edge's equals the node's own, the search's tie rule,
        so the row equals :meth:`_sssp`'s."""
        s = self._rank[source]
        cached = self._key_parent_rows.get(s)
        if cached is None:
            import numpy as np

            src, dst, edge_key, starts = self._edge_keys()
            # Edges leave and enter alike (undirected), so the edge
            # (x, y) offers y as x's parent; edges are grouped by x.
            row = self._keys[s]
            via = row.take(dst)
            via += edge_key
            offer = np.where(via == row.take(src), dst, len(self._nodes))
            parent = np.minimum.reduceat(offer, starts)
            parent[s] = -1  # the graph is connected: all others have one
            cached = self._key_parent_rows[s] = array("i", parent.tobytes())
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
        """A deterministic least-weight path from ``u`` to ``v`` (node list).

        Walks ``u``'s cached tree, else the parents an already computed
        :meth:`_key_matrix` gives (this never starts that pass), else a
        new search's tree.
        """
        if u not in self._sssp_cache and self._keys is not None:
            parent = self._key_parents(u)  # the graph is connected
        else:
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

    def all_pairs_distances(
        self, sources: Optional[Iterable[Node]] = None
    ) -> Dict[Node, Dict[Node, int]]:
        """Source → its cached distance row, for ``sources`` (default:
        every node); only the requested rows are computed."""
        return {
            v: self._sssp(v)[0]
            for v in (self._nodes if sources is None else sources)
        }

    def distance_row(self, source: Node) -> List[int]:
        """wd(source, v) for every node v, indexed by rank (the position
        in :attr:`nodes`): read off :meth:`_key_matrix` when it applies,
        else off ``source``'s search."""
        keys = self._key_matrix()
        if keys is None:
            return list(map(self._sssp(source)[0].__getitem__, self._nodes))
        return (keys[self._rank[source]] // (2 * len(self._nodes))).tolist()

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
            keys = self._key_matrix()
            self._metric_cache["WD"] = (
                max(max(self._sssp(v)[0].values()) for v in self._nodes)
                if keys is None
                else int(keys.max()) // (2 * len(self._nodes))
            )
        return self._metric_cache["WD"]

    def shortest_path_diameter(self) -> int:
        """s — max over pairs of min hops among least-weight paths (cached)."""
        if "s" not in self._metric_cache:
            keys = self._key_matrix()
            self._metric_cache["s"] = (
                max(max(self._sssp(v)[1]) for v in self._nodes)
                if keys is None
                else int((keys % (2 * len(self._nodes))).max())
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
