"""Vectorized numpy kernels: the numpy ledger tier.

The communication primitives' one Python path walks every directed edge
in Python on every round. The paper's *regular* primitives — BFS
flooding, multi-source Bellman–Ford, pipelined broadcast and
convergecast aggregation — are round-synchronous array updates, so each
round collapses to a handful of numpy operations over a CSR topology:

* :class:`NumpyTopology` — the integer-rank compilation: nodes sorted by
  ``repr`` become ranks (integer ``min`` *is* the primitives' repr-based
  tie-breaking), the adjacency becomes ``indptr``/``indices`` arrays,
  and every CSR position maps to a canonical-edge id for ledger
  charging.
* :class:`NumpyCongestRun` — a :class:`~repro.congest.run.CongestRun`
  whose per-edge traffic accumulates in an int64 array (materialized to
  the usual Counter on first read). Primitives without a numpy kernel,
  and kernels that decline (a workload that does not scale to int64
  exactly, or a primitive running on a graph other than the ledger's),
  take the Python path, which charges this ledger like any other.
* the kernels — frontier expansion by segment gather, per-target
  lexicographic minima by ``lexsort`` + first-occurrence masks, the
  moat phase's reduced weights as one array expression — each produce
  the byte-identical execution of their pure-python counterpart (same
  rounds, messages, per-edge traffic, results; pinned by
  tests/test_npkernels.py and the conformance suites).

**Integer exactness.** All distance arithmetic runs in int64 after
scaling every Fraction by the least common denominator. Scaling is
gated by explicit bound checks against :data:`INT64_LIMIT` (with the
worst-case path length folded in), and every kernel re-asserts its
outputs stay inside the bound — when a workload cannot be scaled (float
weights, giant denominators, values near 2^62) the caller falls back to
the exact python branch instead of losing precision. Conformance is
exact, never approximate.

This module imports numpy at module scope **on purpose**: when numpy is
absent the import fails cleanly and ``numpy`` is not a valid tier name
(see :mod:`repro.simbackend` and :func:`repro.perf.make_ledger_run`),
keeping the reference path dependency-free.
"""

import math
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Collection, Dict, List, Optional, Tuple

import numpy as np

from repro.model.graph import Edge, Node, WeightedGraph
from repro.perf.fastpath import FastCongestRun

#: Hard ceiling for every scaled int64 quantity. 2^62 leaves one bit of
#: headroom under ``np.int64`` so a single addition of two in-bound
#: values cannot wrap before the bound assertion sees it.
INT64_LIMIT = 2 ** 62

#: Sentinel for "unreached" in distance arrays; every admissible scaled
#: distance is strictly below INT64_LIMIT, so comparisons against the
#: sentinel behave like comparisons against +infinity.
UNREACHED = np.int64(2 ** 63 - 1)

#: Sentinel for "no candidate" in per-target minima of packed keys.
NO_KEY = np.iinfo(np.int64).max


def assert_int64_bounds(values: np.ndarray, context: str) -> None:
    """Assert every value sits strictly inside ±:data:`INT64_LIMIT`.

    This is the kernels' overflow invariant: it must hold by
    construction (the scaling gates reject workloads that could reach
    the limit), so a failure is a kernel bug, not a workload property.
    """
    if values.size and int(np.abs(values).max()) >= INT64_LIMIT:
        raise AssertionError(
            f"int64 bound violated in {context}: "
            f"|value| >= 2^62 after scaling"
        )


def scale_fractions(values: List[Fraction]) -> Optional[Tuple[List[int], int]]:
    """Scale Fractions to a common integer grid.

    Returns ``(scaled ints, denominator)`` with ``value == scaled /
    denominator`` exactly, or None when any value is not an
    int/Fraction or the scaled magnitudes leave the int64 bound.
    """
    denom = 1
    for value in values:
        if isinstance(value, int):
            continue
        if not isinstance(value, Fraction):
            return None
        denom = denom * value.denominator // math.gcd(denom, value.denominator)
        if denom >= INT64_LIMIT:
            return None
    scaled = []
    for value in values:
        s = int(value * denom)
        if abs(s) >= INT64_LIMIT:
            return None
        scaled.append(s)
    return scaled, denom


class NumpyTopology:
    """One-time CSR compilation of a graph in repr-rank space.

    Attributes:
        graph: the compiled :class:`~repro.model.graph.WeightedGraph`.
        repr_of: node → ``repr(node)`` (the key every primitive's
            deterministic tie-breaking is defined in terms of).
        order: nodes sorted by ``repr`` — index *is* the node's rank, so
            integer minima reproduce the primitives' repr tie-breaking.
        rank_of: node → rank.
        indptr/indices: CSR adjacency over ranks; each node's neighbor
            slice is sorted by rank (deterministic gather order).
        edge_eid: per CSR position, the canonical-edge id of that
            directed edge (the unit of ledger charging).
        eid_weight: int64 graph weight per canonical edge id
            (bound-checked at build).
        eid_u/eid_v: canonical edge id → endpoint ranks.
        canon_edges: canonical edge id → the canonical edge tuple (for
            materializing the ledger's Counter).
        eid_of: canonical edge tuple → id.
    """

    __slots__ = (
        "graph",
        "repr_of",
        "order",
        "rank_of",
        "indptr",
        "indices",
        "edge_eid",
        "eid_weight",
        "eid_u",
        "eid_v",
        "canon_edges",
        "eid_of",
        "num_edges",
        "_tag_repr",
    )

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.repr_of = graph.repr_of
        order = graph.nodes  # already in repr order
        self.order = order
        rank_of = {v: i for i, v in enumerate(order)}
        self.rank_of = rank_of
        n = len(order)

        # One pass over the graph's cached canonical edge list in rank
        # space; the edge's position is its id, and neighbor ordering
        # happens as array ops below (python-side sorting per directed
        # edge is exactly the compilation cost this tier exists to
        # avoid). A pair of equal-repr neighbors is listed in both
        # orders; the rank test keeps one.
        kept = [e for e in graph.edges() if rank_of[e[0]] < rank_of[e[1]]]
        for u, v, w in kept:
            if not isinstance(w, int) or abs(w) >= INT64_LIMIT:
                raise OverflowError(
                    f"edge weight {w!r} on ({u!r}, {v!r}) is not an "
                    "int64-safe integer; the numpy tier requires "
                    "integer graph weights below 2^62"
                )
        m = len(kept)
        self.num_edges = m
        self.eid_u = np.fromiter((rank_of[u] for u, _, _ in kept), np.int64, m)
        self.eid_v = np.fromiter((rank_of[v] for _, v, _ in kept), np.int64, m)
        self.eid_weight = np.fromiter((w for _, _, w in kept), np.int64, m)
        canon_edges: List[Edge] = [(u, v) for u, v, _ in kept]
        self.canon_edges = canon_edges
        self.eid_of = dict(zip(canon_edges, range(m)))

        # Both directions of every edge, each carrying its edge id,
        # sorted by (sender, receiver) rank: rank order is repr order,
        # so every slice reproduces ``graph.neighbors``'s ordering.
        src = np.concatenate((self.eid_u, self.eid_v))
        dst = np.concatenate((self.eid_v, self.eid_u))
        eids = np.concatenate((np.arange(m, dtype=np.int64),) * 2)
        perm = np.lexsort((dst, src))
        self.indices = dst[perm]
        self.edge_eid = eids[perm]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self.indptr = indptr
        # repr memo for arbitrary hashable tags (Bellman–Ford regions),
        # keyed by (type, value) — hash-equal values of different types
        # (True vs 1) must not share a cached repr.
        self._tag_repr: Dict[Tuple[type, Any], str] = {}

    def canonical(self, u: Node, v: Node) -> Edge:
        """The canonical form of edge ``{u, v}`` via the repr memo."""
        return (u, v) if self.repr_of[u] <= self.repr_of[v] else (v, u)

    def tag_repr(self, tag: Any) -> str:
        """``repr(tag)``, memoized (tags repeat across relaxation rounds)."""
        key = (type(tag), tag)
        cached = self._tag_repr.get(key)
        if cached is None:
            cached = self._tag_repr[key] = repr(tag)
        return cached

    def directed_weights(
        self, edge_weight: Callable[[Node, Node], Any]
    ) -> Optional[Tuple[np.ndarray, int]]:
        """Evaluate a custom ``edge_weight`` once per directed CSR edge.

        Returns ``(scaled int64 per CSR position, denominator)``, or
        None when any value cannot be scaled exactly (caller falls back
        to the python branch).
        """
        order = self.order
        values: List[Fraction] = []
        for i, v in enumerate(order):
            for j in range(int(self.indptr[i]), int(self.indptr[i + 1])):
                values.append(edge_weight(v, order[int(self.indices[j])]))
        scaled = scale_fractions(values)
        if scaled is None:
            return None
        return np.asarray(scaled[0], dtype=np.int64), scaled[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NumpyTopology(n={len(self.order)}, edges={self.num_edges})"
        )


def gather_out_edges(
    indptr: np.ndarray, indices: np.ndarray, ranks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR out-edge slices of ``ranks`` (segment gather).

    Returns ``(positions, senders, targets)``: the CSR positions of
    every directed out-edge of the given ranks, the sending rank per
    position, and the receiving rank per position.
    """
    starts = indptr[ranks]
    counts = indptr[ranks + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1])
    )
    positions = np.repeat(starts - offsets, counts) + np.arange(
        total, dtype=np.int64
    )
    senders = np.repeat(ranks, counts)
    return positions, senders, indices[positions]


class NumpyCongestRun(FastCongestRun):
    """The numpy-tier ledger: a :class:`FastCongestRun` with array
    charging (a subclass so type-based tier checks see a fast ledger).

    Primitives with a numpy kernel detect the ``npc`` attribute and run
    the kernel when they run on this ledger's graph; everything else
    takes the one Python path, which charges through the inherited
    methods.

    Per-edge traffic accumulates in an int64 array indexed by canonical
    edge id and is folded into the inherited ``edge_messages`` Counter
    on first read (Counter equality is order-insensitive, so the
    materialization order is unobservable).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 10_000_000,
        npc: Optional[NumpyTopology] = None,
    ) -> None:
        super().__init__(
            graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
        )
        if npc is not None and npc.graph is not graph:
            raise ValueError("numpy topology belongs to a different graph")
        self.npc = npc if npc is not None else NumpyTopology(graph)
        self._pending = np.zeros(self.npc.num_edges, dtype=np.int64)
        self._pending_dirty = False
        #: Kernel calls that fell back to the Python path, by reason.
        self.declines: Counter = Counter()

    # -- pending-array Counter bridge -----------------------------------

    @property
    def edge_messages(self) -> Counter:
        """The per-edge Counter, with pending array charges folded in."""
        if self._pending_dirty:
            pending = self._pending
            ids = np.flatnonzero(pending)
            counts = pending[ids]
            counter = self._edge_counter
            canon_edges = self.npc.canon_edges
            for eid, count in zip(ids.tolist(), counts.tolist()):
                counter[canon_edges[eid]] += count
            pending[ids] = 0
            self._pending_dirty = False
        return self._edge_counter

    @edge_messages.setter
    def edge_messages(self, value: Counter) -> None:
        # The base constructor assigns the initial empty Counter through
        # this setter (before the pending array exists).
        self._edge_counter = value

    def charge_messages(self, canonical_edges: Collection[Edge]) -> None:
        """:meth:`CongestRun.charge_messages` straight into the Counter:
        charging through ``edge_messages`` would fold the pending array
        on every Python-path charge after a kernel's, not once on read."""
        count = len(canonical_edges)
        self._edge_counter.update(canonical_edges)
        self.messages += count
        if self.profiler is not None and count:
            self.profiler.add_messages(count)

    def charge_eids(self, eids: np.ndarray) -> None:
        """Batch-charge one message per canonical-edge id (repeats
        allowed across ids, ≤ 1 per direction per round guaranteed by
        the calling kernel — same contract as ``charge_messages``)."""
        count = int(eids.size)
        if count == 0:
            return
        np.add.at(self._pending, eids, 1)
        self._pending_dirty = True
        self.messages += count
        if self.profiler is not None:
            self.profiler.add_messages(count)

    def charge_unique_eids(self, eids: np.ndarray) -> None:
        """Like :meth:`charge_eids` for ids known to be distinct (plain
        fancy-index add, no scatter buffering)."""
        count = int(eids.size)
        if count == 0:
            return
        self._pending[eids] += 1
        self._pending_dirty = True
        self.messages += count
        if self.profiler is not None:
            self.profiler.add_messages(count)


# ---------------------------------------------------------------------
# BFS flooding
# ---------------------------------------------------------------------


def bfs_levels(
    npc: NumpyTopology, root_rank: int
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Pure BFS kernel: parents/depths by repr-minimum flooding.

    Returns ``(parent_rank, depth, levels)`` where ``parent_rank`` is -1
    for the root and unreached nodes, ``depth`` is -1 for unreached
    nodes, and ``levels[d]`` holds the ranks joining at depth d+1 in
    ascending rank order (the reference insertion order). Pure — no
    ledger; :func:`build_bfs_tree_numpy` adds the charging.
    """
    n = len(npc.order)
    parent_rank = np.full(n, -1, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int64)
    depth[root_rank] = 0
    visited = np.zeros(n, dtype=bool)
    visited[root_rank] = True
    frontier = np.asarray([root_rank], dtype=np.int64)
    levels: List[np.ndarray] = []
    d = 0
    while frontier.size:
        d += 1
        _, senders, targets = gather_out_edges(
            npc.indptr, npc.indices, frontier
        )
        mask = ~visited[targets]
        cand_t = targets[mask]
        if cand_t.size:
            cand_s = senders[mask]
            new, inverse = np.unique(cand_t, return_inverse=True)
            best = np.full(new.size, n, dtype=np.int64)
            np.minimum.at(best, inverse, cand_s)
            parent_rank[new] = best
            depth[new] = d
            visited[new] = True
            levels.append(new)
            frontier = new
        else:
            frontier = np.empty(0, dtype=np.int64)
    return parent_rank, depth, levels


def build_bfs_tree_numpy(run: "NumpyCongestRun", root: Node):
    """The numpy branch of :func:`repro.congest.bfs.build_bfs_tree`.

    Round-for-round identical to the reference flooding: while the
    frontier is non-empty one round is ticked and every frontier node
    charges all its out-edges; joins pick the minimum-rank announcer
    (== minimum ``repr``). Returns the same :class:`~repro.congest.bfs.
    BFSTree`, with the parent dict in the reference insertion order
    (root first, then per depth in ascending ``repr``).
    """
    from repro.congest.bfs import BFSTree

    npc = run.npc
    order = npc.order
    root_rank = npc.rank_of[root]
    # Charging follows the identical round structure: replay the level
    # expansion, ticking and charging per round.
    n = len(order)
    visited = np.zeros(n, dtype=bool)
    visited[root_rank] = True
    frontier = np.asarray([root_rank], dtype=np.int64)
    parent_rank = np.full(n, -1, dtype=np.int64)
    levels: List[np.ndarray] = []
    d = 0
    while frontier.size:
        d += 1
        run.tick()
        positions, senders, targets = gather_out_edges(
            npc.indptr, npc.indices, frontier
        )
        run.charge_eids(npc.edge_eid[positions])
        mask = ~visited[targets]
        cand_t = targets[mask]
        if cand_t.size:
            cand_s = senders[mask]
            new, inverse = np.unique(cand_t, return_inverse=True)
            best = np.full(new.size, n, dtype=np.int64)
            np.minimum.at(best, inverse, cand_s)
            parent_rank[new] = best
            visited[new] = True
            levels.append(new)
            frontier = new
        else:
            frontier = np.empty(0, dtype=np.int64)
    parent: Dict[Node, Optional[Node]] = {root: None}
    depth_of: Dict[Node, int] = {root: 0}
    for level_depth, ranks in enumerate(levels, start=1):
        for rank in ranks.tolist():
            parent[order[rank]] = order[parent_rank[rank]]
            depth_of[order[rank]] = level_depth
    return BFSTree(root, parent, depth_of)


# ---------------------------------------------------------------------
# Multi-source Bellman–Ford (scaled int64 relaxation)
# ---------------------------------------------------------------------


def _decline(run: "NumpyCongestRun", reason: str) -> None:
    """Count one kernel decline on the ledger; the caller returns its
    decline value and the primitive takes its Python path."""
    run.declines[reason] += 1
    return None


def bellman_ford_numpy(
    graph: WeightedGraph,
    sources: Any,
    run: "NumpyCongestRun",
    edge_weight: Optional[Callable[[Node, Node], Any]],
    blocked: Any,
    max_iterations: Optional[int],
):
    """The numpy branch of :func:`repro.congest.bellman_ford.
    bellman_ford`; returns a BellmanFordResult or None when the
    workload cannot be scaled to int64 exactly (the caller then takes
    the python branch). Each None is counted in ``run.declines`` under
    its reason.

    Per relaxation round: gather every out-edge of the changed set,
    lexsort candidates by (distance, tag rank, sender rank) — the exact
    repr-based tie-breaking of the reference — keep the first candidate
    per target, and apply the strictly-smaller (distance, tag)
    acceptance rule as masked array updates.
    """
    from repro.congest.bellman_ford import BellmanFordResult

    npc = run.npc
    n = len(npc.order)
    rank_of = npc.rank_of

    # --- scale the weights ------------------------------------------
    if edge_weight is None or edge_weight is graph.weight:
        w_denom = 1
        w_scaled = npc.eid_weight[npc.edge_eid]
    else:
        # An int64 array of the callable's int values per canonical
        # edge id (the distributed solver's Ŵ_j).
        precomputed = getattr(edge_weight, "np_scaled", None)
        if precomputed is not None:
            w_denom = 1
            w_scaled = precomputed[npc.edge_eid]
        else:
            evaluated = npc.directed_weights(edge_weight)
            if evaluated is None:
                return _decline(run, "unscalable edge weights")
            w_scaled, w_denom = evaluated

    # --- scale the source distances to the common grid --------------
    source_items = list(sources.items())
    d0_scaled = scale_fractions([d0 for _, (d0, _) in source_items])
    if d0_scaled is None:
        return _decline(run, "unscalable source distances")
    d0_values, d0_denom = d0_scaled
    denom = w_denom * d0_denom // math.gcd(w_denom, d0_denom)
    if denom >= INT64_LIMIT:
        return _decline(run, "common grid >= 2^62")
    if denom != w_denom:
        factor = denom // w_denom
        # Pre-check in python ints: the int64 multiply itself could
        # wrap before any bound assertion sees the product.
        max_abs_w = int(np.abs(w_scaled).max()) if w_scaled.size else 0
        if max_abs_w * factor >= INT64_LIMIT:
            return _decline(run, "scaled weights overflow")
        w_scaled = w_scaled * factor
    if denom != d0_denom:
        factor = denom // d0_denom
        d0_values = [d * factor for d in d0_values]
    # Worst-case candidate distance: any source offset plus n hops (a
    # settled distance of at most n-1 hops, plus the edge it relaxes).
    max_w = int(w_scaled.max()) if w_scaled.size else 0
    max_d0 = max((abs(d) for d in d0_values), default=0)
    if max_d0 + n * max(0, max_w) >= INT64_LIMIT:
        return _decline(run, "distance bound overflow")
    assert_int64_bounds(w_scaled, "bellman_ford weights")

    # --- tags: repr-rank ints (equal reprs share a rank, exactly the
    # reference's repr-string comparison) -----------------------------
    tag_repr = npc.tag_repr
    tags = [t for _, (_, t) in source_items]
    distinct_reprs = sorted({tag_repr(t) for t in tags})
    repr_rank = {r: i for i, r in enumerate(distinct_reprs)}

    dist_s = np.full(n, UNREACHED, dtype=np.int64)
    tag_rank = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    tag_idx = np.full(n, -1, dtype=np.int64)
    parent_rank = np.full(n, -1, dtype=np.int64)
    source_mask = np.zeros(n, dtype=bool)
    for i, (v, (d0, t)) in enumerate(source_items):
        r = rank_of[v]
        dist_s[r] = d0_values[i]
        tag_rank[r] = repr_rank[tag_repr(t)]
        tag_idx[r] = i
        source_mask[r] = True

    blocked_mask = np.zeros(n, dtype=bool)
    for v in blocked:
        blocked_mask[rank_of[v]] = True
    skip_mask = blocked_mask | source_mask

    changed = source_mask.copy()
    #: Ranks of non-source nodes in the order the reference first
    #: inserts them into its dist dict (per round, first-proposal order
    #: over announcers sorted by repr × neighbors sorted by repr — which
    #: is exactly the CSR gather order).
    reach_order: List[int] = []
    iterations = 0
    stabilized = True
    while changed.any():
        if max_iterations is not None and iterations >= max_iterations:
            stabilized = False
            break
        iterations += 1
        announcers = np.flatnonzero(changed)
        positions, senders, targets = gather_out_edges(
            npc.indptr, npc.indices, announcers
        )
        run.tick()
        run.charge_eids(npc.edge_eid[positions])
        mask = ~skip_mask[targets]
        cand_t = targets[mask]
        changed = np.zeros(n, dtype=bool)
        if not cand_t.size:
            continue
        cand_s = senders[mask]
        cand_d = dist_s[cand_s] + w_scaled[positions[mask]]
        assert_int64_bounds(cand_d, "bellman_ford distances")
        cand_tr = tag_rank[cand_s]
        # Reference keeps the least (dist, tag repr, sender repr)
        # candidate per target: per-target minima by scatter, first of
        # the distance, then of (tag rank, sender rank) packed into one
        # int among the candidates at that distance (a sender proposes
        # to a target once a round, so the minimum is one candidate).
        best_d_of = np.full(n, UNREACHED, dtype=np.int64)
        np.minimum.at(best_d_of, cand_t, cand_d)
        tied = cand_d == best_d_of[cand_t]
        best_key_of = np.full(n, NO_KEY, dtype=np.int64)
        np.minimum.at(best_key_of, cand_t[tied], cand_tr[tied] * n + cand_s[tied])
        best_t = np.flatnonzero(best_key_of != NO_KEY)
        best_d = best_d_of[best_t]
        best_tr, best_s = np.divmod(best_key_of[best_t], n)
        cur_d = dist_s[best_t]
        cur_tr = tag_rank[best_t]
        accept = (best_d < cur_d) | ((best_d == cur_d) & (best_tr < cur_tr))
        acc_t = best_t[accept]
        if acc_t.size:
            # Newly reached nodes enter the result dict in the order the
            # reference first proposes to them this round: by the index
            # of their first candidate.
            new_t = best_t[accept & (cur_d == UNREACHED)]
            if new_t.size:
                first_of = np.full(n, cand_t.size, dtype=np.int64)
                np.minimum.at(first_of, cand_t, np.arange(cand_t.size))
                reach_order.extend(
                    new_t[np.argsort(first_of[new_t])].tolist()
                )
            dist_s[acc_t] = best_d[accept]
            tag_rank[acc_t] = best_tr[accept]
            tag_idx[acc_t] = tag_idx[best_s[accept]]
            parent_rank[acc_t] = best_s[accept]
            changed[acc_t] = True

    # --- materialize result dicts in the reference's exact insertion
    # order: sources first (sources.items() order), then non-sources in
    # first-reached order -------------------------------------------
    order_nodes = npc.order
    dist: Dict[Node, Any] = {}
    tag: Dict[Node, Any] = {}
    parent: Dict[Node, Optional[Node]] = {}
    for i, (v, (d0, t)) in enumerate(source_items):
        dist[v] = Fraction(d0)
        tag[v] = t
        parent[v] = None
    # Python ints out of the arrays once; Fraction(x) is the int fast path.
    dist_l, tag_l, parent_l = (
        dist_s.tolist(), tag_idx.tolist(), parent_rank.tolist()
    )
    source_tags = [t for _, (_, t) in source_items]
    for r in reach_order:
        v = order_nodes[r]
        dist[v] = Fraction(dist_l[r], denom) if denom != 1 else Fraction(dist_l[r])
        tag[v] = source_tags[tag_l[r]]
        parent[v] = order_nodes[parent_l[r]]
    return BellmanFordResult(dist, tag, parent, iterations, stabilized)


# ---------------------------------------------------------------------
# Tree primitives: broadcast pipelining and convergecast schedules
# ---------------------------------------------------------------------


def tree_broadcast_schedule(npc: NumpyTopology, tree: Any):
    """Per-depth child-edge ids of a BFS tree, grouped contiguously.

    Returns ``(child_eids, level_start)``: the canonical-edge ids of
    every parent→child tree edge grouped by the parent's depth, and the
    per-depth slice boundaries (length ``tree.depth + 1``; level d's
    edges occupy ``child_eids[level_start[d]:level_start[d + 1]]``).
    Cached on the tree object (one tree is broadcast over many times per
    solve).
    """
    cached = getattr(tree, "_np_broadcast_sched", None)
    if cached is not None and cached[0] is npc:
        return cached[1], cached[2]
    eid_of = npc.eid_of
    canonical = npc.canonical
    per_level: List[List[int]] = [[] for _ in range(tree.depth + 1)]
    for v, kids in tree.children.items():
        if kids:
            bucket = per_level[tree.depth_of[v]]
            for child in kids:
                bucket.append(eid_of[canonical(v, child)])
    level_start = np.zeros(tree.depth + 2, dtype=np.int64)
    for d, bucket in enumerate(per_level):
        level_start[d + 1] = level_start[d] + len(bucket)
    child_eids = np.asarray(
        [eid for bucket in per_level for eid in bucket], dtype=np.int64
    )
    tree._np_broadcast_sched = (npc, child_eids, level_start)
    return child_eids, level_start


def broadcast_items_numpy(tree: Any, items: List[Any], run: "NumpyCongestRun"):
    """The numpy branch of :func:`repro.congest.broadcast.
    broadcast_items`.

    The reference pipeline never stalls: a node at depth d receives item
    k at the end of round d+k and forwards it in round d+k+1, so round r
    carries exactly the child edges of internal nodes at depths
    ``[r - m, r - 1]`` and the whole broadcast ticks ``depth + m - 1``
    rounds. The window over the depth axis is contiguous, so each
    round's charge is one slice of the grouped child-edge array.
    """
    npc = run.npc
    child_eids, level_start = tree_broadcast_schedule(npc, tree)
    m = len(items)
    total_rounds = tree.depth + m - 1
    max_parent_depth = tree.depth - 1
    for r in range(1, total_rounds + 1):
        run.tick()
        lo = max(0, r - m)
        hi = min(r - 1, max_parent_depth)
        if lo <= hi:
            run.charge_unique_eids(
                child_eids[int(level_start[lo]):int(level_start[hi + 1])]
            )
    return items


def convergecast_schedule_numpy(npc: NumpyTopology, tree: Any):
    """Send rounds for :func:`repro.congest.broadcast.
    convergecast_aggregate`: node v sends to its parent in round
    ``height(subtree(v))``; returns ``(senders, eids, round_start)``
    with the non-root nodes sorted by (send round, bottom-up position) —
    the exact order the reference applies ``combine`` — their edge ids,
    and per-round slice boundaries.
    """
    bottom_up = tree.nodes_bottom_up()
    send_round: Dict[Any, int] = {}
    for v in bottom_up:
        kids = tree.children[v]
        send_round[v] = 1 + max((send_round[c] for c in kids), default=0)
    total = max(
        (send_round[v] for v in bottom_up if v is not tree.root), default=0
    )
    per_round: List[List[Any]] = [[] for _ in range(total + 1)]
    for v in bottom_up:  # bottom-up order within each round, as reference
        if v != tree.root:
            per_round[send_round[v]].append(v)
    eid_of = npc.eid_of
    canonical = npc.canonical
    senders: List[Any] = []
    eids: List[int] = []
    round_start = np.zeros(total + 1, dtype=np.int64)
    for r in range(1, total + 1):
        for v in per_round[r]:
            senders.append(v)
            eids.append(eid_of[canonical(v, tree.parent[v])])
        round_start[r] = len(senders)
    return senders, np.asarray(eids, dtype=np.int64), round_start


def convergecast_aggregate_numpy(
    tree: Any,
    values: Dict[Any, Any],
    combine: Callable[[Any, Any], Any],
    run: "NumpyCongestRun",
):
    """The numpy branch of :func:`repro.congest.broadcast.
    convergecast_aggregate`: the per-round sender sets are a static
    schedule (subtree heights), so the rounds tick off slices of one
    precomputed edge-id array; ``combine`` is applied in the identical
    (send round, bottom-up) order as the reference loop.
    """
    acc = dict(values)
    senders, eids, round_start = convergecast_schedule_numpy(run.npc, tree)
    parent = tree.parent
    for r in range(1, round_start.size):
        start, stop = int(round_start[r - 1]), int(round_start[r])
        run.tick()
        run.charge_unique_eids(eids[start:stop])
        for v in senders[start:stop]:
            acc[parent[v]] = combine(acc[parent[v]], acc[v])
    return acc[tree.root]


# ---------------------------------------------------------------------
# Reduced weights (the moat phase's Ŵ_j)
# ---------------------------------------------------------------------


def scaled_reduced_weights(
    run: "NumpyCongestRun", leftover: Dict[Node, int], scale: int
) -> Optional[np.ndarray]:
    """Vectorized Ŵ_j (Definition 4.5) on the solver's grid 1/scale.

    ``leftover`` holds ints at ``scale``; returns
    ``max(0, w·scale − Σ_endpoint min(w·scale, leftover))`` per
    canonical edge id as int64, or None when ``w·scale`` leaves the
    int64 bound (counted in ``run.declines``; the caller leaves the
    Bellman–Ford kernel to evaluate its python callable).
    """
    npc = run.npc
    max_w = int(npc.eid_weight.max()) if npc.num_edges else 0
    if max_w * scale >= INT64_LIMIT:
        return _decline(run, "reduced weights overflow")
    # A leftover counts only up to the edge's weight, so clipping at the
    # largest scaled weight keeps min(w, lo) exact and inside int64.
    cap = max_w * scale
    lo = np.zeros(len(npc.order), dtype=np.int64)
    rank_of = npc.rank_of
    for v, value in leftover.items():
        lo[rank_of[v]] = min(value, cap)
    w = npc.eid_weight * scale
    cov = np.minimum(w, lo[npc.eid_u]) + np.minimum(w, lo[npc.eid_v])
    reduced = np.maximum(0, w - cov)
    assert_int64_bounds(reduced, "scaled_reduced_weights")
    return reduced
