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
      which the two balls would meet along that edge;
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

The run matches Algorithm 1 merge by merge (same µ sequence, same moat
evolution) — the tests assert this against :func:`repro.core.moat.
moat_growing` — and the measured round count realizes the O(ks + t) bound of
Theorem 4.17.
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.congest.bfs import build_bfs_tree
from repro.congest.bellman_ford import bellman_ford
from repro.congest.broadcast import broadcast_items, upcast_items
from repro.congest.pipeline import MergeItem, pipelined_filtered_upcast
from repro.congest.run import CongestRun
from repro.exceptions import SimulationError
from repro.model.graph import Edge, Node, canonical_edge
from repro.model.instance import SteinerForestInstance
from repro.model.solution import ForestSolution
from repro.perf.profiler import maybe_span
from repro.util import UnionFind


def merge_grid(values: Iterable[Fraction]) -> int:
    """The phase's integer grid: 2 · lcm of the denominators of ``values``.

    Every ψ and leftover of a phase is a multiple of 1/L for L the lcm of
    their denominators, so each candidate weight µ (a half-sum or a sum
    of them and an integer edge weight) is a multiple of 1/(2L): µ · grid
    is an int that orders and compares exactly like µ.
    """
    return 2 * lcm(1, *{value.denominator for value in values})


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


class _MoatBookkeeping:
    """Moat partition / label / activity state, replicated at every node.

    After each phase the accepted merges are broadcast, so every node tracks
    this state locally with identical deterministic updates (Algorithm 1
    lines 20–33). The class is also used as the ``stop_predicate`` engine:
    simulating a candidate prefix tells whether its last merge changes some
    terminal's activity status, which ends the merge phase.
    """

    def __init__(self, instance: SteinerForestInstance) -> None:
        self.terminals = tuple(sorted(instance.terminals, key=repr))
        self.moats = UnionFind(self.terminals)
        self.label: Dict[Node, Hashable] = {}
        self.active: Dict[Node, bool] = {}
        components = instance.components
        for v in self.terminals:
            self.label[v] = instance.label(v)
            self.active[v] = len(components[instance.label(v)]) >= 2

    def clone(self) -> "_MoatBookkeeping":
        other = object.__new__(_MoatBookkeeping)
        other.terminals = self.terminals
        other.moats = UnionFind(self.terminals)
        for v in self.terminals:
            other.moats.union(v, self.moats.find(v))
        # The fresh union-find may elect different representatives, so
        # normalize: give *every* terminal its moat's current label and
        # activity, making lookups valid under any representative choice.
        other.label = {v: self.label[self.rep(v)] for v in self.terminals}
        other.active = {v: self.active[self.rep(v)] for v in self.terminals}
        return other

    def rep(self, v: Node) -> Node:
        return self.moats.find(v)

    def is_active(self, v: Node) -> bool:
        return self.active[self.rep(v)]

    def snapshot(self) -> Tuple[bool, ...]:
        return tuple(self.is_active(v) for v in self.terminals)

    def has_active(self) -> bool:
        return any(self.is_active(v) for v in self.terminals)

    def apply_merge(self, a: Node, b: Node) -> bool:
        """Merge the moats of terminals a and b; returns True if some
        terminal's activity status changed (phase boundary)."""
        before = self.snapshot()
        ra, rb = self.rep(a), self.rep(b)
        if ra == rb:
            return False
        label_a, label_b = self.label[ra], self.label[rb]
        self.moats.union(ra, rb)
        new_rep = self.rep(a)
        if label_a != label_b:
            for t in self.terminals:
                r = self.rep(t)
                if self.label[r] == label_b:
                    self.label[r] = label_a
        self.label[new_rep] = label_a
        reps_with_label = {
            self.rep(t)
            for t in self.terminals
            if self.label[self.rep(t)] == label_a
        }
        self.active[new_rep] = len(reps_with_label) > 1
        return self.snapshot() != before

    def component_map(self) -> Dict[Node, Node]:
        """terminal → moat representative (the Kruskal filter's base)."""
        return {v: self.rep(v) for v in self.terminals}


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
    # The vectorized numpy tier (repro.perf.npkernels), on the ledger's
    # own graph only: the kernels are byte-identical or they decline and
    # the python loops below run unchanged.
    npc = getattr(run, "npc", None) if run.graph is graph else None

    # ------------------------------------------------------------------
    # Step 1: BFS tree; make (v, λ(v)) global knowledge. O(D + t) rounds.
    # ------------------------------------------------------------------
    run.set_phase("setup")
    tree = build_bfs_tree(graph, run)
    terminal_labels = upcast_items(
        tree,
        {
            v: ([(v, instance.label(v))] if instance.label(v) is not None else [])
            for v in graph.nodes
        },
        run,
    )
    broadcast_items(tree, terminal_labels, run)

    state = _MoatBookkeeping(instance)

    # Per-node geometry, replicated consistently after each phase broadcast:
    owner: Dict[Node, Optional[Node]] = {v: None for v in graph.nodes}
    parent: Dict[Node, Optional[Node]] = {v: None for v in graph.nodes}
    leftover: Dict[Node, Fraction] = {}
    for t in instance.terminals:
        owner[t] = t
        leftover[t] = Fraction(0)

    merges: List[AcceptedMerge] = []
    forest_edges: Set[Edge] = set()
    phase = 0
    max_phases = 2 * max(1, instance.num_components)
    terminal_repr = {t: repr(t) for t in instance.terminals}
    edges = graph.edges()
    edge_repr: Dict[Edge, str] = {}
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
        # Ŵ_j is fixed within the phase (leftover only changes at phase
        # end), so each edge's reduced weight is computed once instead of
        # once per relaxation round.
        rw_cache: Dict[Tuple[Node, Node], Fraction] = {}

        def reduced_weight(x: Node, y: Node) -> Fraction:
            value = rw_cache.get((x, y))
            if value is None:
                w = Fraction(graph.weight(x, y))
                cov = Fraction(0)
                for endpoint in (x, y):
                    lo = leftover.get(endpoint)
                    if lo is not None and lo > 0:
                        cov += min(w, lo)
                # Ŵ_j is symmetric in the endpoints: fill both directions.
                value = max(Fraction(0), w - cov)
                rw_cache[(x, y)] = rw_cache[(y, x)] = value
            return value

        if npc is not None:
            # Precompute the whole phase's Ŵ_j on the scaled int64 grid;
            # the Bellman–Ford kernel picks it up through the
            # ``np_scaled`` hook. None (unscalable leftovers) simply
            # leaves the hook unset — the kernel then scales the python
            # callable itself or declines entirely.
            from repro.perf.npkernels import scaled_reduced_weights

            np_scaled = scaled_reduced_weights(npc, leftover)
            if np_scaled is not None:
                reduced_weight.np_scaled = np_scaled  # type: ignore[attr-defined]

        sources = {}
        blocked: Set[Node] = set()
        for x, own in owner.items():
            if own is None:
                continue
            if state.is_active(own):
                sources[x] = (Fraction(0), own)
            else:
                blocked.add(x)
        with maybe_span(profiler, "bellman-ford"):
            bf = bellman_ford(
                graph, sources, run, edge_weight=reduced_weight, blocked=blocked
            )

        # Phase-local overlay: tree owner / reduced distance / parent.
        tree_owner: Dict[Node, Optional[Node]] = dict(owner)
        tree_dist: Dict[Node, Fraction] = {}
        tree_parent: Dict[Node, Optional[Node]] = dict(parent)
        for x in bf.dist:
            tree_owner[x] = bf.tag[x]
            tree_dist[x] = Fraction(bf.dist[x])
            if bf.parent[x] is not None:
                tree_parent[x] = bf.parent[x]

        def path_to_owner(x: Node) -> List[Node]:
            chain = [x]
            while tree_parent[chain[-1]] is not None:
                chain.append(tree_parent[chain[-1]])
            return chain

        # --------------------------------------------------------------
        # Step (b): one round of owner exchange, then local candidate
        # construction for cross-tree edges, keyed on the phase's integer
        # grid: µ·grid orders exactly like µ.
        # --------------------------------------------------------------
        run.tick_neighbors(graph)
        grid = merge_grid(chain(tree_dist.values(), leftover.values()))

        def scaled(value: Union[int, Fraction]) -> int:
            return value.numerator * (grid // value.denominator)

        psi = {
            x: scaled(tree_dist.get(x, 0)) - scaled(leftover.get(x, 0))
            for x, own in tree_owner.items()
            if own is not None
        }
        active = {t: state.is_active(t) for t in instance.terminals}
        local_candidates: Dict[Node, List[MergeItem]] = {
            v: [] for v in graph.nodes
        }
        for x, y, w in edges:
            ox, oy = tree_owner[x], tree_owner[y]
            if ox is None or oy is None or ox == oy:
                continue
            edge = (x, y)  # graph.edges() is in canonical order
            rx, ry = terminal_repr[ox], terminal_repr[oy]
            pair = (rx, ry) if rx <= ry else (ry, rx)
            er = edge_repr.get(edge)
            if er is None:
                er = edge_repr[edge] = repr(edge)
            for a, b, oa, ob in ((x, y, ox, oy), (y, x, oy, ox)):
                if not active[oa]:
                    continue  # Definition 4.11 requires the active side
                if active[ob]:
                    mu = (w * grid + psi[a] + psi[b]) // 2
                else:
                    mu = w * grid + psi[a] - scaled(leftover.get(b, 0))
                local_candidates[a].append(
                    MergeItem(
                        key=(mu, pair, er), a=oa, b=ob, payload=(edge, a, b)
                    )
                )

        # --------------------------------------------------------------
        # Step (c): pipelined filtered collection with phase-end stop.
        # --------------------------------------------------------------
        base = state.component_map()

        def phase_ends_with(prefix: List[MergeItem]) -> bool:
            sim = state.clone()
            changed = False
            for item in prefix:
                changed = sim.apply_merge(item.a, item.b)
            return changed

        accepted = pipelined_filtered_upcast(
            tree, local_candidates, base, run, stop_predicate=phase_ends_with
        )
        if not accepted:
            raise SimulationError(
                "no candidate merges found although active moats remain"
            )

        # --------------------------------------------------------------
        # Step (d): broadcast the accepted merges; all nodes update their
        # replicated bookkeeping locally.
        # --------------------------------------------------------------
        mus = [Fraction(item.key[0], grid) for item in accepted]
        broadcast_items(
            tree,
            [(item.a, item.b, mu) for item, mu in zip(accepted, mus)],
            run,
        )
        mu_phase = mus[-1]
        for item, mu in zip(accepted, mus):
            edge, a_side, b_side = item.payload  # type: ignore[misc]
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
            state.apply_merge(item.a, item.b)

        # Radii / coverage update: every covered node of an active moat
        # gains µ_phase of leftover; nodes the Bellman–Ford reached within
        # µ_phase are newly absorbed. Activity *during* the phase is the
        # activity at phase start, i.e. membership in ``sources``.
        grown = False
        if npc is not None:
            from repro.perf.npkernels import apply_radius_growth

            grown = apply_radius_growth(
                npc,
                leftover,
                owner,
                parent,
                sources,
                tree_owner,
                tree_parent,
                tree_dist,
                mu_phase,
            )
        if not grown:
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
