"""Tests for the Section 4.2 algorithm and the F.3 fast pruning."""

import math
import random
from fractions import Fraction

import pytest

import repro.core.pruning as pruning_module
import repro.core.sublinear as sublinear_module
from repro.congest import CongestRun, bellman_ford
from repro.core import fast_pruning, moat_growing, sublinear_moat_growing
from repro.core.rounded import rounded_moat_growing
from repro.exact import steiner_forest_cost
from repro.model import ForestSolution, SteinerForestInstance, WeightedGraph
from repro.model.graph import canonical_edge
from repro.util import UnionFind
from repro.perf import PhaseProfiler, make_ledger_run
from tests.conftest import make_random_instance
from tests.test_ledger_golden import CASES, _instance, requires_numpy


class TestSublinear:
    @pytest.mark.parametrize("seed", range(8))
    def test_two_plus_eps_approximation(self, seed):
        inst = make_random_instance(seed)
        opt = steiner_forest_cost(inst)
        result = sublinear_moat_growing(inst, Fraction(1, 2))
        result.solution.assert_feasible(inst)
        if opt > 0:
            assert result.solution.weight <= Fraction(5, 2) * opt

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_algorithm2_output(self, seed):
        inst = make_random_instance(seed)
        central = rounded_moat_growing(inst, Fraction(1, 2))
        result = sublinear_moat_growing(inst, Fraction(1, 2))
        assert result.solution.weight == central.solution.weight

    @pytest.mark.parametrize("seed", range(6))
    def test_growth_phases_logarithmic(self, seed):
        """Lemma F.1 bound on growth phases."""
        inst = make_random_instance(seed)
        result = sublinear_moat_growing(inst, Fraction(1, 2))
        wd = inst.graph.weighted_diameter()
        bound = 3 + math.log(max(2, wd)) / math.log(1.25)
        assert result.num_growth_phases <= bound

    def test_sigma_default(self):
        inst = make_random_instance(4)
        result = sublinear_moat_growing(inst)
        n = inst.graph.num_nodes
        s = inst.graph.shortest_path_diameter()
        t = inst.num_terminals
        assert result.sigma == max(1, math.isqrt(min(s * t, n)))

    def test_explicit_sigma_skips_the_diameter(self, monkeypatch):
        """s is read only to default σ: with σ given, neither the solver
        nor its fast pruning computes it."""
        inst = make_random_instance(4)
        want = sublinear_moat_growing(inst, sigma=3)

        def forbidden(graph):
            raise AssertionError("shortest_path_diameter was called")

        monkeypatch.setattr(
            type(inst.graph), "shortest_path_diameter", forbidden
        )
        got = sublinear_moat_growing(make_random_instance(4), sigma=3)
        assert got.sigma == 3
        assert got.rounds == want.rounds
        assert got.solution.edges == want.solution.edges

    def test_trivial_instance(self, grid33):
        inst = SteinerForestInstance(grid33, {0: "x"})
        result = sublinear_moat_growing(inst)
        assert result.solution.edges == frozenset()

    def test_phase_breakdown(self):
        inst = make_random_instance(2)
        result = sublinear_moat_growing(inst)
        assert "setup" in result.run.phase_rounds
        assert "pruning" in result.run.phase_rounds


RECHARGE_TIERS = [
    "reference",
    "flatarray",
    pytest.param("numpy", marks=requires_numpy),
]
RECHARGE_CASES = list(CASES) + [f"random-{seed}" for seed in range(4)]


def _recharge_instance(case):
    if case.startswith("random-"):
        return make_random_instance(int(case.split("-")[1]))
    return _instance(case)


def _profiled_sublinear(instance, tier):
    run = make_ledger_run(tier, instance.graph)
    profiler = PhaseProfiler()
    profiler.attach(run)
    result = sublinear_moat_growing(instance, run=run)
    profiler.finish()
    frames = [(f.name, f.rounds, f.messages) for f in profiler.phases]
    state = (
        run.rounds, run.messages, run.edge_messages, run.phase_rounds, frames
    )
    return result, state


class TestDecompositionRecharge:
    """Step 3a runs its Bellman–Ford once per job and re-charges the
    recorded execution on every later merge phase; the ledger and the
    profiler must end exactly as if every merge phase had executed it."""

    @pytest.mark.parametrize("tier", RECHARGE_TIERS)
    @pytest.mark.parametrize("case", RECHARGE_CASES)
    def test_recharge_equals_executing_every_merge_phase(
        self, monkeypatch, case, tier
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return bellman_ford(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(sublinear_module, "bellman_ford", spy)
            result, recharged = _profiled_sublinear(
                _recharge_instance(case), tier
            )
        assert result.num_growth_phases >= 1
        assert result.num_merge_phases > 1  # something was re-charged
        assert len(calls) == 1

        instance = _recharge_instance(case)
        sources = {v: (0, v) for v in instance.terminals}
        monkeypatch.setattr(
            CongestRun,
            "recharge",
            lambda run, record: bellman_ford(run.graph, sources, run),
        )
        _, executed = _profiled_sublinear(instance, tier)
        assert recharged == executed

    def test_no_growth_phase_runs_no_bellman_ford(self, monkeypatch, grid33):
        calls = []
        monkeypatch.setattr(
            sublinear_module, "bellman_ford", lambda *a, **k: calls.append(a)
        )
        inst = SteinerForestInstance(grid33, {0: "x"})
        assert sublinear_moat_growing(inst).num_growth_phases == 0
        assert calls == []


class TestFastPruning:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_minimal_subforest(self, seed):
        inst = make_random_instance(seed)
        forest = moat_growing(inst).forest
        pruned = fast_pruning(inst, forest)
        assert (
            pruned.solution.edges
            == forest.minimal_subforest(inst).edges
        )

    def test_round_shape(self):
        """Corollary F.10: Õ(σ + k + D) rounds."""
        inst = make_random_instance(1, n_range=(14, 14))
        forest = moat_growing(inst).forest
        run = CongestRun(inst.graph)
        pruned = fast_pruning(inst, forest, run=run)
        graph = inst.graph
        sigma = pruned.sigma
        k = inst.num_components
        d = graph.unweighted_diameter()
        t = inst.num_terminals
        log_n = math.log2(graph.num_nodes)
        assert pruned.rounds <= 50 * (sigma + k + d + 1) * (1 + log_n)

    def test_explicit_sigma_respected(self):
        inst = make_random_instance(0)
        forest = moat_growing(inst).forest
        pruned = fast_pruning(inst, forest, sigma=2)
        assert pruned.sigma == 2
        assert pruned.solution.is_feasible(inst)

    def test_spanning_tree_input(self, grid44):
        import networkx as nx

        inst = SteinerForestInstance(
            grid44, {0: "a", 15: "a", 3: "b", 12: "b"}
        )
        tree_edges = list(
            nx.minimum_spanning_tree(grid44.to_networkx()).edges()
        )
        forest = ForestSolution(grid44, tree_edges)
        pruned = fast_pruning(inst, forest)
        assert pruned.solution.is_feasible(inst)
        for edge in pruned.solution.edges:
            reduced = ForestSolution(grid44, pruned.solution.edges - {edge})
            assert not reduced.is_feasible(inst)


def _quadratic_cluster_selection_check(instance, forest, solution):
    """The Lemma F.9 check as first written, one union-find per forest
    edge: the oracle for ``pruning._check_cluster_selection``."""
    components = {
        label: nodes
        for label, nodes in instance.components.items()
        if len(nodes) >= 2
    }
    uf_all = UnionFind(instance.graph.nodes)
    for u, v in forest.edges:
        uf_all.union(u, v)
    for u, v in sorted(forest.edges, key=repr):
        uf = UnionFind()
        for a, b in forest.edges:
            if (a, b) != (u, v):
                uf.union(a, b)
        separates = any(
            len({uf.find(x) for x in nodes if uf_all.connected(x, u)}) > 1
            for nodes in components.values()
        )
        kept = canonical_edge(u, v) in solution.edges
        assert kept == separates, (
            f"cluster selection rule violated at edge ({u!r}, {v!r})"
        )


def _random_forest_case(seed):
    """A random forest inside a connected graph, with labels placed
    inside its trees (so the forest is feasible)."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    trees, forest_edges = [[0]], []
    for v in range(1, n):
        if rng.random() < 0.2:
            trees.append([v])
        else:
            tree = rng.choice(trees)
            forest_edges.append((rng.choice(tree), v))
            tree.append(v)
    # A path through every node keeps the graph connected.
    extra = [(v, v + 1) for v in range(n - 1)]
    extra += [tuple(rng.sample(range(n), 2)) for _ in range(n // 2)] if n > 2 else []
    weights = {}
    for u, v in forest_edges + extra:
        weights.setdefault(canonical_edge(u, v), rng.randint(1, 5))
    graph = WeightedGraph(range(n), [(u, v, w) for (u, v), w in weights.items()])
    labels = {}
    for label in range(rng.randint(1, 5)):
        tree = rng.choice(trees)
        for v in rng.sample(tree, rng.randint(1, min(4, len(tree)))):
            labels.setdefault(v, f"L{label}")
    instance = SteinerForestInstance(graph, labels)
    return rng, instance, ForestSolution(graph, forest_edges)


def _check_outcome(check, instance, forest, selection):
    try:
        check(instance, forest, selection)
    except AssertionError as error:
        # The first line: assertion rewriting in a test module appends
        # the compared values to the oracle's message.
        return str(error).splitlines()[0]
    return None


class TestClusterSelectionCheck:
    @pytest.mark.parametrize("seed", range(80))
    def test_matches_the_quadratic_check(self, seed):
        rng, instance, forest = _random_forest_case(seed)
        solution = forest.minimal_subforest(instance)
        selections = [solution]
        if solution.edges:  # drop a needed edge
            dropped = rng.choice(sorted(solution.edges, key=repr))
            selections.append(ForestSolution(
                instance.graph, solution.edges - {dropped}
            ))
        spare = sorted(forest.edges - solution.edges, key=repr)
        if spare:  # keep an edge that separates nothing
            selections.append(ForestSolution(
                instance.graph, solution.edges | {rng.choice(spare)}
            ))
        outcomes = [
            _check_outcome(check, instance, forest, selection)
            for selection in selections
            for check in (
                pruning_module._check_cluster_selection,
                _quadratic_cluster_selection_check,
            )
        ]
        assert outcomes[0::2] == outcomes[1::2]
        assert outcomes[0] is None
        assert all(
            message.startswith("cluster selection rule violated at edge")
            for message in outcomes[2:]
        )

    def test_a_wrong_selection_raises(self, grid44):
        inst = SteinerForestInstance(grid44, {0: "a", 3: "a", 12: "b"})
        forest = ForestSolution(
            grid44, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 8), (8, 12)]
        )
        solution = forest.minimal_subforest(inst)
        assert solution.edges == {(0, 1), (1, 2), (2, 3)}
        pruning_module._check_cluster_selection(inst, forest, solution)
        wrong = ForestSolution(grid44, [(0, 1), (1, 2), (2, 3), (8, 12)])
        with pytest.raises(AssertionError, match=r"violated at edge \(12, 8\)"):
            pruning_module._check_cluster_selection(inst, forest, wrong)

    def test_runs_above_two_hundred_forest_edges(self, monkeypatch):
        """fast_pruning checks Lemma F.9 on a 255-edge spanning tree."""
        graph = WeightedGraph.from_edges(
            [(v, v + 1, 1) for v in range(255)]
        )
        inst = SteinerForestInstance(graph, {10: "a", 200: "a", 30: "b"})
        forest = ForestSolution(graph, [(v, v + 1) for v in range(255)])
        checked = []
        real = pruning_module._check_cluster_selection

        def spy(instance, forest, solution):
            checked.append(len(forest.edges))
            real(instance, forest, solution)

        monkeypatch.setattr(pruning_module, "_check_cluster_selection", spy)
        pruned = fast_pruning(inst, forest, sigma=4)
        assert checked == [255]
        assert len(pruned.solution.edges) == 190
