"""The complete randomized algorithm (Theorem 5.2, Appendix G.4).

1. Estimate s (footnote 2: Bellman–Ford capped at √n iterations) to select
   the regime; when s > √n, use the virtual tree truncated at the √n
   highest-rank nodes S.
2. Run the first stage ``repetitions`` times (the paper uses c·log n
   repetitions to turn the expected O(log n) stretch into a w.h.p. bound);
   keep the lightest selected edge set F.
3. If s ≤ √n, F already solves the instance (Corollary G.10). Otherwise,
   build the F-reduced instance (≤ √n super-terminals) and solve it with
   the [17]-style spanner algorithm (Lemma G.15); return F ∪ F′.

The measured round count realizes Õ(k + min{s, √n} + D) and the solution is
O(log n)-approximate w.h.p. (both validated by experiments E5/E6).
"""

import math
import random
from typing import Optional, Set

from repro.baselines.spanner import spanner_steiner_forest
from repro.congest.bellman_ford import bellman_ford
from repro.congest.bfs import build_bfs_tree, default_root
from repro.congest.run import CongestRun
from repro.model.graph import Edge
from repro.model.instance import SteinerForestInstance
from repro.model.solution import ForestSolution
from repro.randomized.embedding import VirtualTreeEmbedding, build_embedding
from repro.randomized.reduced import build_reduced_instance
from repro.randomized.selection import FirstStageResult, first_stage_selection


class RandomizedResult:
    """Outcome of the randomized algorithm.

    Attributes:
        solution: the returned edge set (F, or F ∪ F′ in the s > √n case).
        run: the round/message ledger.
        truncated: whether the s > √n branch was taken.
        embedding: the virtual tree of the chosen repetition.
        first_stage: the chosen repetition's first-stage result.
        reduced_terminals: t̂ of the reduced instance (0 when not built).
    """

    def __init__(
        self,
        instance: SteinerForestInstance,
        solution: ForestSolution,
        run: CongestRun,
        truncated: bool,
        embedding: VirtualTreeEmbedding,
        first_stage: FirstStageResult,
        reduced_terminals: int,
    ) -> None:
        self.instance = instance
        self.solution = solution
        self.run = run
        self.truncated = truncated
        self.embedding = embedding
        self.first_stage = first_stage
        self.reduced_terminals = reduced_terminals

    @property
    def rounds(self) -> int:
        return self.run.rounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomizedResult(W={self.solution.weight}, "
            f"rounds={self.rounds}, truncated={self.truncated})"
        )


def randomized_steiner_forest(
    instance: SteinerForestInstance,
    rng: Optional[random.Random] = None,
    run: Optional[CongestRun] = None,
    repetitions: int = 1,
    force_truncation: Optional[bool] = None,
) -> RandomizedResult:
    """Solve DSF-IC with the Õ(k + min{s,√n} + D)-round algorithm.

    Args:
        instance: the problem instance.
        rng: randomness source (ranks, β); defaults to a fixed seed for
            reproducibility.
        run: optional pre-existing ledger to charge.
        repetitions: first-stage repetitions; the paper's w.h.p. statement
            uses Θ(log n), the default 1 gives the expectation bound.
        force_truncation: override the s vs √n regime choice (for tests
            and experiments).
    """
    graph = instance.graph
    if rng is None:
        rng = random.Random(0xC0FFEE)
    if run is None:
        run = CongestRun(graph)
    n = graph.num_nodes

    # Footnote 2: determine the regime by running Bellman–Ford for at most
    # √n iterations from the BFS root and checking stabilization.
    run.set_phase("regime-detection")
    root = default_root(graph)
    probe = bellman_ford(
        graph,
        {root: (0, root)},
        run,
        max_iterations=max(1, math.isqrt(n)),
    )
    if force_truncation is None:
        truncated = not probe.stabilized or (
            graph.shortest_path_diameter() > math.isqrt(n)
        )
    else:
        truncated = force_truncation

    truncate_at = max(1, math.isqrt(n)) if truncated else None

    best: Optional[FirstStageResult] = None
    best_embedding: Optional[VirtualTreeEmbedding] = None
    for _ in range(max(1, repetitions)):
        run.set_phase("first-stage")
        embedding = build_embedding(
            graph, run, rng, truncate_at=truncate_at
        )
        stage = first_stage_selection(instance, embedding, run)
        # Weight comparison over the BFS tree costs O(D) per repetition.
        tree = build_bfs_tree(graph, run)
        weight = graph.edge_weight_sum(stage.edges)
        if best is None or weight < graph.edge_weight_sum(best.edges):
            best = stage
            best_embedding = embedding
    assert best is not None and best_embedding is not None

    edges: Set[Edge] = set(best.edges)
    reduced_terminals = 0
    if truncated:
        reduced = build_reduced_instance(
            instance, best, best_embedding.s_nodes, run
        )
        if reduced is not None:
            reduced_terminals = reduced.instance.num_terminals
            second = spanner_steiner_forest(reduced.instance, run=None)
            # The reduced instance has Õ(√n) terminals; its Õ(√n + D)
            # rounds are charged on the main ledger.
            run.charge_rounds(
                second.rounds,
                "second stage on the F-reduced instance (Lemma G.15)",
            )
            edges |= reduced.map_back(second.solution.edges)

    solution = ForestSolution(graph, edges)
    solution.assert_feasible(instance)
    return RandomizedResult(
        instance,
        solution,
        run,
        truncated,
        best_embedding,
        best,
        reduced_terminals,
    )
