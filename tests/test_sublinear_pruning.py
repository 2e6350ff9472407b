"""Tests for the Section 4.2 algorithm and the F.3 fast pruning."""

import math
from fractions import Fraction

import pytest

import repro.core.sublinear as sublinear_module
from repro.congest import CongestRun, bellman_ford
from repro.core import fast_pruning, moat_growing, sublinear_moat_growing
from repro.core.rounded import rounded_moat_growing
from repro.exact import steiner_forest_cost
from repro.model import ForestSolution, SteinerForestInstance
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
