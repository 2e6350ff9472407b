"""Distributed deterministic moat growing (Section 4.1, Appendix E.1).

The algorithm emulates the centralized Algorithm 1 phase by phase:

1. a BFS tree is built and all (terminal, label) pairs are made global
   knowledge (O(D + t) rounds);
2. per *merge phase* j (Definition 4.3 — a maximal run of merges during
   which no terminal's activity status changes):

   a. the j-th terminal decomposition is computed by multi-source
      Bellman–Ford with *reduced* weights Ŵ_j (Definition 4.5) from all
      nodes covered by active moats (Lemma 4.8; O(s) rounds, measured);
   b. every node exchanges its tree owner with its neighbors (1 round) and
      proposes *candidate merges* for edges crossing between trees
      (Definition 4.11) — the candidate weight is the moat growth µ at
      which the two balls would meet along that edge. Each node x keeps
      only its least candidate (µ, then the owner pair, then the edge)
      per other moat, and none between two terminals of one moat: every
      candidate at x has x's tree owner as one end, so step (c)'s entry
      filter at x would discard exactly the others, and a discarded
      merge is never announced;
   c. the candidates are piped up the BFS tree with Kruskal-style cycle
      filtering, stopping at the first activity-changing merge
      (Lemma 4.14 / Corollary 4.16; O(D + |F_c^{(j)}|) rounds, measured);
   d. the accepted merges are broadcast; every node locally updates moats,
      labels, activity flags and radii (all inputs are global knowledge).

3. the selected merge paths are materialized by token passing along the
   per-phase shortest-path trees (O(s) rounds) and the minimal feasible
   subforest is returned.

Geometry used by steps (a)–(b): each covered node x stores its *leftover*
l(x) = max_v (rad(v) − wd(v, x)) ≥ 0; an uncovered node reached by the
phase's Bellman–Ford stores its reduced distance d(x) from the active moat
boundary. With ψ(x) = d(x) − l(x) (so ψ ≤ 0 inside moats), the balls of two
distinct moats meet along the uncovered part of edge e = {x, y} after growth

    µ = (Ŵ-gap)/2 = (W(e) + ψ(x) + ψ(y)) / 2      both moats active,
    µ =  W(e) + ψ(x) − l(y)                        y's moat inactive,

which is exactly the candidate weight of Definition 4.11 expressed through
locally known quantities. Candidates whose µ exceeds the phase-ending growth
are *false candidates* (Definition 4.15); they order after all genuine ones
(Lemma E.1) and are cut off by the early stop.

Every l, d, ψ and Ŵ_j above is a half-sum of integer edge weights, so all of
them are kept as Python ints on one grid 1/scale, scale a power of two
(initially 1), and every candidate µ as an int key on the grid 1/(2·scale):
W(e)·scale + ψ(x) + ψ(y), or 2·(W(e)·scale + ψ(x) − l(y)). When the phase's
µ key is odd, scale doubles at the phase end (leftovers and distances are
multiplied by 2, the key is the new µ); otherwise µ is the key halved. Only
the reported :attr:`AcceptedMerge.mu` is a ``Fraction``: key / (2·scale).

The run is Algorithm 1 with another tie-break at equal µ. Merges happen at
the same levels of total growth as in :func:`repro.core.moat.moat_growing`,
but merges at one level are ordered by the owner-rank pair, then the
edge's end ranks (for int, str and int-tuple nodes the order of the edge
reprs; :class:`CandidateOrder` codes all of it as one int), where
Algorithm 1 orders them by the reprs of the two terminals. So a
merge phase can end at another merge of that level, and the moats after a
phase can differ: on ``make_random_instance(seed, n_range=(8, 24),
k_range=(2, 5), max_weight=50)`` seeds 79 and 175 do, and on seed 79 the
emulation merges in an inactive singleton that Algorithm 1 never touches.
Between tied least-weight paths the two runs may also pick different ones.
The tests assert the growth levels, equal final weights on seeds 79 and
175, and, on other seeds, equal merge multisets and equal moats after
every phase. Which order the paper licenses is left open. The measured
round count realizes the O(ks + t) bound of Theorem 4.17.
"""

from fractions import Fraction
from operator import itemgetter
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.congest.bfs import BFSTree, build_bfs_tree
from repro.congest.bellman_ford import bellman_ford
from repro.congest.broadcast import broadcast_items, upcast_items
from repro.congest.pipeline import MergeItem, pipelined_filtered_upcast
from repro.congest.run import CongestRun
from repro.core.moat import MoatPartition
from repro.exceptions import SimulationError
from repro.model.graph import Edge, Node, WeightedGraph, canonical_edge
from repro.model.instance import SteinerForestInstance
from repro.model.solution import ForestSolution
from repro.perf.profiler import maybe_span


class AcceptedMerge:
    """A merge selected into F_c, with its realizing path."""

    __slots__ = ("phase", "mu", "terminal_a", "terminal_b", "edge", "path")

    def __init__(
        self,
        phase: int,
        mu: Fraction,
        terminal_a: Node,
        terminal_b: Node,
        edge: Edge,
        path: List[Node],
    ) -> None:
        self.phase = phase
        self.mu = mu
        self.terminal_a = terminal_a
        self.terminal_b = terminal_b
        self.edge = edge
        self.path = path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AcceptedMerge(j={self.phase}, mu={self.mu}, "
            f"{self.terminal_a!r}~{self.terminal_b!r})"
        )


class DistributedResult:
    """Outcome of the distributed deterministic algorithm.

    Attributes:
        solution: the minimal feasible subforest (the algorithm's output).
        forest: all selected path edges before pruning.
        merges: the accepted merges in execution order.
        rounds: total simulated CONGEST rounds.
        run: the full ledger (per-phase breakdown, per-edge traffic).
        num_phases: number of merge phases executed (≤ 2k, Lemma 4.4).
    """

    def __init__(
        self,
        instance: SteinerForestInstance,
        forest_edges: FrozenSet[Edge],
        merges: List[AcceptedMerge],
        run: CongestRun,
        num_phases: int,
    ) -> None:
        self.instance = instance
        self.forest = ForestSolution(instance.graph, forest_edges)
        self.solution = self.forest.minimal_subforest(instance)
        self.merges = merges
        self.run = run
        self.num_phases = num_phases

    @property
    def rounds(self) -> int:
        return self.run.rounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedResult(W={self.solution.weight}, "
            f"rounds={self.rounds}, phases={self.num_phases})"
        )


def share_terminal_labels(
    instance: SteinerForestInstance, run: CongestRun
) -> BFSTree:
    """Setup of Sections 4.1 and 4.2: build a BFS tree and make every
    (v, λ(v)) pair global knowledge by an upcast and a broadcast over it
    (O(D + t) rounds, charged to the ``setup`` phase)."""
    graph = instance.graph
    run.set_phase("setup")
    tree = build_bfs_tree(graph, run)
    labels = instance.labels
    terminal_labels = upcast_items(
        tree,
        {
            v: [(v, labels[v])]
            for v in graph.nodes
            if labels.get(v) is not None
        },
        run,
    )
    broadcast_items(tree, terminal_labels, run)
    return tree


class CandidateOrder:
    """Lemma 4.13's order of the candidate merges of step (b), one int
    per candidate.

    A candidate of key κ = µ·2·scale, owner pair p and edge i = (u, v)
    (the i-th entry of ``graph.edges()``) has the code

        ((κ·R² + p)·n² + rank(u)·n + rank(v))·m + i,

    with R terminals, n nodes and m listed edges. The owner pair is
    coded by the owners' :attr:`~repro.core.moat.MoatPartition.rank`,
    min·R + max, and rank is the graph's :attr:`rank_of`, except that
    nodes of equal repr take the rank of the first of them. Ranks order
    as reprs do, and for int, str and int-tuple nodes the rank pair
    orders as ``repr(edge)`` does, so codes order as the tuples
    (κ, p, repr(edge)) did. The last digit i only tells candidates of
    equal tuples apart: at a node the first one found still wins, and
    the upcast's key drops it, so such candidates keep one key there.

    Nodes are handled by their position in ``graph.nodes`` and moats
    by an id below R.
    """

    __slots__ = ("nodes", "tails", "heads", "weights", "ties", "num_ranks",
                 "edge_unit", "pair_unit", "key_unit")

    def __init__(self, graph: WeightedGraph, num_ranks: int) -> None:
        edges = graph.edges()
        self.nodes = graph.nodes
        position = graph.rank_of
        self.tails = list(map(position.__getitem__, map(itemgetter(0), edges)))
        self.heads = list(map(position.__getitem__, map(itemgetter(1), edges)))
        self.weights = list(map(itemgetter(2), edges))
        n, m = graph.num_nodes, len(edges)
        reprs, first = graph.repr_of, {}
        rank = [first.setdefault(reprs[v], r) for r, v in enumerate(self.nodes)]
        self.ties = [
            (rank[u] * n + rank[v]) * m + i
            for i, (u, v) in enumerate(zip(self.tails, self.heads))
        ]
        self.num_ranks = num_ranks
        self.edge_unit = m
        self.pair_unit = n * n * m
        self.key_unit = num_ranks * num_ranks * n * n * m

    def least(
        self,
        scale: int,
        geometry: List[Optional[Tuple[int, int, int, bool]]],
        leftover: Mapping[Node, int],
    ) -> Dict[int, int]:
        """Slot → the code of the least candidate there, in order of the
        first candidate found; the slot of node a's candidates towards
        moat id b is a's position·R + b.

        ``geometry`` holds, by position, each node with a tree owner's
        moat id, ψ, owner rank and whether its moat is active (None
        without an owner); ``leftover`` holds l(x) of the covered nodes
        (both on the grid 1/scale).
        """
        least: Dict[int, int] = {}
        get = least.get
        nodes, num_ranks = self.nodes, self.num_ranks
        pair_unit, key_unit = self.pair_unit, self.key_unit
        for ix, iy, w, tie in zip(self.tails, self.heads, self.weights,
                                  self.ties):
            gx, gy = geometry[ix], geometry[iy]
            if gx is None or gy is None:
                continue  # no owner
            mx, px, rx, ax = gx
            my, py, ry, ay = gy
            if mx == my:
                continue  # one moat already: a cycle anywhere
            tie += pair_unit * (
                rx * num_ranks + ry if rx <= ry else ry * num_ranks + rx
            )
            ws = w * scale
            # Definition 4.11 requires the active side.
            if ax:
                if ay:
                    code = (ws + px + py) * key_unit + tie
                else:
                    lo = leftover.get(nodes[iy], 0)
                    code = 2 * (ws + px - lo) * key_unit + tie
                slot = ix * num_ranks + my
                best = get(slot)
                if best is None or code < best:
                    least[slot] = code
            if ay:
                if ax:
                    code = (ws + px + py) * key_unit + tie
                else:
                    lo = leftover.get(nodes[ix], 0)
                    code = 2 * (ws + py - lo) * key_unit + tie
                slot = iy * num_ranks + mx
                best = get(slot)
                if best is None or code < best:
                    least[slot] = code
        return least

    def items(
        self,
        least: Mapping[int, int],
        tree_owner: Mapping[Node, Optional[Node]],
    ) -> Dict[Node, List[MergeItem]]:
        """node → its candidates as upcast items: the key is the code
        without its edge digit, the payload 2·i + 1 if the node is the
        second end of edge i, else 2·i."""
        nodes, tails, heads = self.nodes, self.tails, self.heads
        num_ranks, edge_unit = self.num_ranks, self.edge_unit
        local: Dict[Node, List[MergeItem]] = {}
        for slot, code in least.items():
            ia = slot // num_ranks
            key, i = divmod(code, edge_unit)
            a = nodes[ia]
            if tails[i] == ia:
                b, payload = nodes[heads[i]], 2 * i
            else:
                b, payload = nodes[tails[i]], 2 * i + 1
            item = MergeItem(key, tree_owner[a], tree_owner[b], payload)
            held = local.get(a)
            if held is None:
                local[a] = [item]
            else:
                held.append(item)
        return local

    def mu_key(self, item: MergeItem) -> int:
        """The item's µ key, µ·2·scale."""
        return item.key // (self.key_unit // self.edge_unit)

    def ends(self, item: MergeItem) -> Tuple[Edge, Node, Node]:
        """The item's edge (u, v), its own node and the other end."""
        i, second = divmod(item.payload, 2)  # type: ignore[call-overload]
        edge = (self.nodes[self.tails[i]], self.nodes[self.heads[i]])
        return (edge, edge[1], edge[0]) if second else (edge, edge[0], edge[1])


def distributed_moat_growing(
    instance: SteinerForestInstance,
    run: Optional[CongestRun] = None,
) -> DistributedResult:
    """Run the Section 4.1 distributed algorithm on the CONGEST simulator.

    Returns a :class:`DistributedResult` whose ``solution`` is 2-approximate
    (Theorem 4.17) and whose ``rounds`` realize the O(ks + t) bound.
    """
    graph = instance.graph
    if run is None:
        run = CongestRun(graph)
    profiler = getattr(run, "profiler", None)

    # ------------------------------------------------------------------
    # Step 1: BFS tree; make (v, λ(v)) global knowledge. O(D + t) rounds.
    # ------------------------------------------------------------------
    tree = share_terminal_labels(instance, run)
    state = MoatPartition(instance)

    # Per-node geometry, replicated consistently after each phase broadcast;
    # leftovers and distances are ints on the grid 1/scale.
    owner: Dict[Node, Optional[Node]] = {v: None for v in graph.nodes}
    parent: Dict[Node, Optional[Node]] = {v: None for v in graph.nodes}
    leftover: Dict[Node, int] = {}
    for t in instance.terminals:
        owner[t] = t
        leftover[t] = 0
    scale = 1

    merges: List[AcceptedMerge] = []
    forest_edges: Set[Edge] = set()
    phase = 0
    max_phases = 2 * max(1, instance.num_components)
    terminal_rank = state.rank
    moat_id = {t: i for i, t in enumerate(state.terminals)}
    position, n = graph.rank_of, graph.num_nodes
    order = CandidateOrder(graph, len(state.terminals))
    while state.has_active():
        phase += 1
        if phase > max_phases:
            raise SimulationError(
                f"exceeded the 2k merge-phase bound (Lemma 4.4): "
                f"phase {phase} > 2k = {max_phases}"
            )
        run.set_phase(f"phase-{phase}")

        # --------------------------------------------------------------
        # Step (a): terminal decomposition by reduced-weight Bellman–Ford.
        # Sources: all nodes covered by *active* moats, distance 0, tagged
        # by their tree owner. Nodes of inactive regions are blocked.
        # --------------------------------------------------------------
        sources = {}
        blocked: Set[Node] = set()
        for x, own in owner.items():
            if own is None:
                continue
            if state.is_active(own):
                sources[x] = (0, own)
            else:
                blocked.add(x)
        with maybe_span(profiler, "bellman-ford"):
            bf = bellman_ford(
                graph, sources, run,
                leftover=leftover, scale=scale, blocked=blocked,
            )

        # Phase-local overlay: tree owner / reduced distance (an int at
        # ``scale``) / parent.
        tree_owner: Dict[Node, Optional[Node]] = dict(owner)
        tree_dist: Dict[Node, int] = bf.dist
        tree_parent: Dict[Node, Optional[Node]] = dict(parent)
        for x in bf.dist:
            tree_owner[x] = bf.tag[x]
            if bf.parent[x] is not None:
                tree_parent[x] = bf.parent[x]

        def path_to_owner(x: Node) -> List[Node]:
            chain = [x]
            while tree_parent[chain[-1]] is not None:
                chain.append(tree_parent[chain[-1]])
            return chain

        # --------------------------------------------------------------
        # Step (b): one round of owner exchange, then local candidate
        # construction for cross-tree edges. Every candidate stored at
        # node a has a's tree owner as its first end, so a's entry filter
        # in step (c) keeps exactly its least candidate per other moat
        # component; only those are built.
        # --------------------------------------------------------------
        run.tick_neighbors(graph)
        base = state.component_map()
        active = {t: state.is_active(t) for t in instance.terminals}
        geometry: List[Optional[Tuple[int, int, int, bool]]] = [None] * n
        for x, own in tree_owner.items():
            if own is not None:
                rep = base[own]
                geometry[position[x]] = (
                    moat_id[rep],
                    tree_dist.get(x, 0) - leftover.get(x, 0),
                    terminal_rank[own],
                    active[rep],
                )
        local_candidates = order.items(
            order.least(scale, geometry, leftover), tree_owner
        )
        # --------------------------------------------------------------
        # Step (c): pipelined filtered collection with phase-end stop.
        # --------------------------------------------------------------
        # The upcast offers each finalized prefix once, in increasing
        # length, so the check applies only the newest merge of each.
        trial = state.copy()
        offered: List[MergeItem] = []

        def phase_ends_with(prefix: List[MergeItem]) -> bool:
            assert len(prefix) == len(offered) + 1, "prefixes grow by one"
            offered.append(prefix[-1])
            return trial.merge(prefix[-1].a, prefix[-1].b)

        accepted = pipelined_filtered_upcast(
            tree, local_candidates, base, run, stop_predicate=phase_ends_with
        )
        if not accepted:
            raise SimulationError(
                "no candidate merges found although active moats remain"
            )
        assert offered == accepted, "every accepted merge was offered"

        # --------------------------------------------------------------
        # Step (d): broadcast the accepted merges; all nodes update their
        # replicated partition locally, to the trial state above.
        # --------------------------------------------------------------
        mus = [Fraction(order.mu_key(item), 2 * scale) for item in accepted]
        broadcast_items(
            tree,
            [(item.a, item.b, mu) for item, mu in zip(accepted, mus)],
            run,
        )
        for item, mu in zip(accepted, mus):
            edge, a_side, b_side = order.ends(item)
            path = list(reversed(path_to_owner(a_side)))
            path += path_to_owner(b_side)
            merges.append(
                AcceptedMerge(
                    phase=phase,
                    mu=mu,
                    terminal_a=item.a,
                    terminal_b=item.b,
                    edge=edge,
                    path=path,
                )
            )

        state = trial

        # An odd µ key lies off the grid 1/scale: double the grid.
        mu_phase = order.mu_key(accepted[-1])
        if mu_phase % 2:
            scale *= 2
            for x in leftover:
                leftover[x] *= 2
            for x in tree_dist:
                tree_dist[x] *= 2
        else:
            mu_phase //= 2

        # Radii / coverage update: every covered node of an active moat
        # gains µ_phase of leftover; nodes the Bellman–Ford reached within
        # µ_phase are newly absorbed. Activity *during* the phase is the
        # activity at phase start, i.e. membership in ``sources``.
        for x, lo in list(leftover.items()):
            own = owner[x]
            if own is not None and x in sources:
                leftover[x] = lo + mu_phase
        for x, d in tree_dist.items():
            if x in sources:
                continue
            if d <= mu_phase:
                owner[x] = tree_owner[x]
                parent[x] = tree_parent[x]
                leftover[x] = mu_phase - d

    # ------------------------------------------------------------------
    # Step 5: materialize the merge paths by token passing along the
    # per-phase trees. Tokens travel at most the maximal tree depth, with
    # constant congestion per tree (each node forwards one token per tree).
    # ------------------------------------------------------------------
    run.set_phase("path-selection")
    max_hops = max((len(m.path) for m in merges), default=0)
    run.charge_rounds(
        max_hops + tree.depth,
        "token passing along decomposition trees (Appendix E, Step 5)",
    )
    for merge in merges:
        for a, b in zip(merge.path, merge.path[1:]):
            forest_edges.add(canonical_edge(a, b))

    return DistributedResult(
        instance, frozenset(forest_edges), merges, run, phase
    )
