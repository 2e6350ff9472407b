"""The sublinear-in-t deterministic algorithm (Section 4.2, Appendix F).

Structure of the paper's algorithm, per *growth phase* (the maximal moat
radius grows by a factor 1 + ε/2 per phase, Lemma F.1 bounds the number of
phases by O(log n / ε)):

* Step 3a — merge phases inside the growth phase: terminal decompositions
  by reduced-weight Bellman–Ford, O(s) rounds each; the number of merge
  phases k_g counts merges involving inactive moats (Definition 4.19);
* Step 3b — *small* moats (component smaller than σ = √min{st, n} nodes,
  Definition 4.18) merge locally: each proposes its least-weight candidate
  merge, a maximal matching on the proposal graph (Cole–Vishkin, Lemma F.4)
  bounds merge chains, O(log σ) iterations of O(σ + s) rounds;
* Step 3c–3f — at most σ *large* moats remain (Lemma F.2); their merges are
  collected by the pipelined filtered upcast in O(D + σ) rounds;
* Step 3g–3i — activity recomputation in O(D + k + σ) rounds.

Fidelity note (cf. DESIGN.md): this module drives the merge *semantics*
from an exact Algorithm 2 run (:func:`repro.core.rounded.
rounded_moat_growing` — Lemma F.4 shows the distributed schedule selects
exactly that merge set, merely reordering within growth phases) and
*simulates the communication* of the schedule: the per-merge-phase
Bellman–Ford is executed for real on the simulator, the small-moat matching
iterations run the real Cole–Vishkin matching on the actual proposal graphs
with rounds charged at the measured moat diameters, and the large-moat
collection is a real pipelined upcast over the BFS tree. The measured
rounds therefore scale as Õ(s·k + σ) (Corollary 4.20/4.21), which
experiment E4 contrasts with the O(ks + t) of Section 4.1.
"""

import math
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.congest.bfs import build_bfs_tree
from repro.congest.bellman_ford import bellman_ford
from repro.congest.broadcast import broadcast_items, upcast_items
from repro.congest.run import CongestRun
from repro.core.matching import maximal_matching_from_proposals
from repro.core.moat import MergeEvent, MoatGrowingResult
from repro.core.pruning import fast_pruning
from repro.core.rounded import rounded_moat_growing
from repro.model.graph import Edge, Node
from repro.model.instance import SteinerForestInstance
from repro.perf.profiler import maybe_span
from repro.util import UnionFind


class SublinearResult:
    """Outcome of the Section 4.2 algorithm (including fast pruning)."""

    def __init__(
        self,
        instance: SteinerForestInstance,
        central: MoatGrowingResult,
        run: CongestRun,
        sigma: int,
        num_growth_phases: int,
        num_merge_phases: int,
    ) -> None:
        self.instance = instance
        self.central = central
        self.forest = central.forest
        self.solution = central.solution
        self.run = run
        self.sigma = sigma
        self.num_growth_phases = num_growth_phases
        self.num_merge_phases = num_merge_phases

    @property
    def rounds(self) -> int:
        return self.run.rounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SublinearResult(W={self.solution.weight}, "
            f"rounds={self.rounds}, growth_phases={self.num_growth_phases})"
        )


def _growth_phase_groups(events: List[MergeEvent]) -> List[List[MergeEvent]]:
    """Split an Algorithm 2 event list into growth phases at checkpoints."""
    groups: List[List[MergeEvent]] = []
    current: List[MergeEvent] = []
    for event in events:
        current.append(event)
        if event.v is None:  # checkpoint ends the growth phase
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def _component_nodes(
    graph, forest_edges: Set[Edge]
) -> Tuple[UnionFind, Dict[Node, int]]:
    uf = UnionFind(graph.nodes)
    for u, v in forest_edges:
        uf.union(u, v)
    sizes: Dict[Node, int] = {}
    for v in graph.nodes:
        root = uf.find(v)
        sizes[root] = sizes.get(root, 0) + 1
    return uf, sizes


def sublinear_moat_growing(
    instance: SteinerForestInstance,
    epsilon: Union[int, float, Fraction] = Fraction(1, 2),
    run: Optional[CongestRun] = None,
    sigma: Optional[int] = None,
) -> SublinearResult:
    """Run the Õ(sk + √min{st,n})-round deterministic algorithm.

    Returns a :class:`SublinearResult`; the solution is (2+ε)-approximate
    (Corollary 4.21) and equals the Algorithm 2 output.
    """
    graph = instance.graph
    if run is None:
        run = CongestRun(graph)
    profiler = getattr(run, "profiler", None)
    n = graph.num_nodes
    t = max(1, instance.num_terminals)
    s = graph.shortest_path_diameter()
    if sigma is None:
        sigma = max(1, math.isqrt(min(s * t, n)))

    with maybe_span(profiler, "central-schedule"):
        central = rounded_moat_growing(instance, epsilon)

    # ------------------------------------------------------------------
    # Setup: BFS tree + labels global (as in Section 4.1). O(D + t).
    # ------------------------------------------------------------------
    run.set_phase("setup")
    tree = build_bfs_tree(graph, run)
    terminal_items = upcast_items(
        tree,
        {
            v: ([(v, instance.label(v))] if instance.label(v) is not None else [])
            for v in graph.nodes
        },
        run,
    )
    broadcast_items(tree, terminal_items, run)

    groups = _growth_phase_groups(central.events)
    forest_so_far: Set[Edge] = set()
    total_merge_phases = 0

    for g, group in enumerate(groups, start=1):
        run.set_phase(f"growth-{g}")
        merges = [e for e in group if e.v is not None]

        # ----- Step 3a: merge-phase decompositions -----------------------
        # k_g = 1 + number of merges that involve an inactive moat; each
        # merge phase recomputes the decomposition with one real
        # Bellman–Ford from all terminals (O(s) rounds, measured).
        k_g = 1 + sum(1 for e in merges if e.phase_boundary)
        total_merge_phases += k_g
        for _ in range(k_g):
            with maybe_span(profiler, "bellman-ford"):
                bellman_ford(
                    graph,
                    {v: (Fraction(0), v) for v in instance.terminals},
                    run,
                )
            # One round of owner exchange plus the min-candidate
            # convergecast of Step 3aiv over the BFS tree.
            run.tick_neighbors(graph)
            run.charge_rounds(
                2 * tree.depth, "min-candidate convergecast (Step 3aiv)"
            )

        # ----- Step 3b: small moats merge locally via matching -----------
        remaining = list(merges)
        iterations_budget = max(1, math.ceil(math.log2(max(2, sigma))))
        for _ in range(iterations_budget):
            if not remaining:
                break
            uf, sizes = _component_nodes(graph, forest_so_far)
            terminal_root = {v: uf.find(v) for v in instance.terminals}

            def moat_of(terminal: Node) -> Node:
                return terminal_root[terminal]

            small = {
                root
                for root in set(terminal_root.values())
                if sizes[root] < sigma
            }
            # Each small moat proposes its least-weight remaining merge.
            proposal: Dict[Node, Node] = {}
            proposal_event: Dict[Node, MergeEvent] = {}
            for event in sorted(remaining, key=lambda e: (e.mu, e.index)):
                a, b = moat_of(event.v), moat_of(event.w)
                if a == b:
                    continue
                for mine, other in ((a, b), (b, a)):
                    if mine in small and mine not in proposal:
                        proposal[mine] = other
                        proposal_event[mine] = event
            if not proposal:
                break
            matching, cv_iterations = maximal_matching_from_proposals(
                proposal
            )
            max_diam = max(
                (sizes[root] for root in small), default=1
            )
            run.charge_rounds(
                (cv_iterations + 1) * min(sigma, max_diam),
                "Cole-Vishkin matching over moat spanning trees (Step 3b)",
            )
            chosen: List[MergeEvent] = []
            used: Set[Node] = set()
            for a, b in sorted(matching, key=repr):
                event = proposal_event.get(a, proposal_event.get(b))
                if event is not None:
                    chosen.append(event)
                    used.add(a)
                    used.add(b)
            for moat, event in sorted(
                proposal_event.items(), key=lambda kv: repr(kv[0])
            ):
                if moat not in used:
                    chosen.append(event)
            applied: Set[int] = set()
            for event in chosen:
                if event.index in applied:
                    continue
                applied.add(event.index)
                for edge in event.added_edges:
                    forest_so_far.add(edge)
            remaining = [e for e in remaining if e.index not in applied]

        # ----- Steps 3c–3f: remaining (large-moat) merges via the BFS
        # tree, pipelined: O(D + #remaining) rounds, simulated for real. ---
        if remaining:
            upcast_items(
                tree,
                {
                    min(e.path, key=repr): [(e.index, str(e.mu))]
                    for e in remaining
                },
                run,
            )
            broadcast_items(
                tree, [(e.index, str(e.mu)) for e in remaining], run
            )
            for event in remaining:
                for edge in event.added_edges:
                    forest_so_far.add(edge)

        # ----- Steps 3g–3i: new moats + activity recomputation -----------
        # Small moats resolve internally (≤ σ rounds); large moats use the
        # BFS tree with ≤ 2 witness messages per label (Lemma 2.4 style).
        run.charge_rounds(
            sigma + tree.depth + instance.num_components,
            "activity recomputation at growth-phase end (Step 3i)",
        )

    # ------------------------------------------------------------------
    # Fast pruning (Appendix F.3) replaces the trivial minimal-subforest
    # collection; Õ(σ + k + D) rounds charged on the same ledger.
    # ------------------------------------------------------------------
    fast_pruning(instance, central.forest, run=run, sigma=sigma)
    return SublinearResult(
        instance,
        central,
        run,
        sigma,
        num_growth_phases=len(groups),
        num_merge_phases=total_merge_phases,
    )
