"""Tests for the distributed deterministic algorithm (Theorem 4.17)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.congest import CongestRun
from repro.congest.bellman_ford import bellman_ford
from repro.core import distributed as distributed_module
from repro.core import distributed_moat_growing, moat_growing
from repro.engine.jobs import expand_jobs
from repro.engine.registry import ScenarioSpec
from repro.engine.runner import build_instance
from repro.exact import steiner_forest_cost
from repro.exceptions import SimulationError
from repro.model import SteinerForestInstance
from repro.perf import make_ledger_run
from repro.simbackend import numpy_tier_available
from repro.util import UnionFind
from tests.conftest import make_random_instance

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "distributed_merges_golden.json")
    .read_text()
)

LEDGERS = [
    "reference",
    "flatarray",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_tier_available(),
        reason="optional numpy extra not installed",
    )),
]


def golden_instance(case):
    return make_random_instance(
        case["seed"], n_range=(8, 24), k_range=(2, 5), max_weight=50
    )


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_centralized_weight(self, seed):
        """The emulation reproduces Algorithm 1's output weight
        (Lemma 4.13: same merges, same paths up to tie-breaking)."""
        inst = make_random_instance(seed, max_weight=40)
        central = moat_growing(inst)
        dist = distributed_moat_growing(inst)
        assert dist.solution.weight == central.solution.weight

    @pytest.mark.parametrize("seed", range(10))
    def test_two_approximation(self, seed):
        inst = make_random_instance(seed)
        opt = steiner_forest_cost(inst)
        dist = distributed_moat_growing(inst)
        dist.solution.assert_feasible(inst)
        if opt > 0:
            assert dist.solution.weight <= 2 * opt

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_sequence_matches_centralized(self, seed):
        """Merge multisets {terminal pairs} agree with Algorithm 1
        (merge order within a phase may permute at equal µ)."""
        inst = make_random_instance(seed, max_weight=50)
        central = moat_growing(inst)
        dist = distributed_moat_growing(inst)
        central_pairs = sorted(
            tuple(sorted((repr(e.v), repr(e.w)))) for e in central.events
        )
        dist_pairs = sorted(
            tuple(sorted((repr(m.terminal_a), repr(m.terminal_b))))
            for m in dist.merges
        )
        assert central_pairs == dist_pairs

    @pytest.mark.parametrize("seed", range(40))
    def test_each_phase_joins_the_moats_of_the_algorithm_1_phase(self, seed):
        """After merge phase j the emulation's moats are Algorithm 1's
        moats after its j-th merge phase (Definition 4.3), its events
        split after each ``phase_boundary``. The terminal pair naming a
        merge may differ: the emulation names the tree owners of the
        crossing edge. Nine of these instances have several phases."""
        inst = make_random_instance(
            seed, n_range=(8, 24), k_range=(2, 5), max_weight=50
        )
        central_phases = [[]]
        for event in moat_growing(inst).events:
            central_phases[-1].append((event.v, event.w))
            if event.phase_boundary:
                central_phases.append([])
        if not central_phases[-1]:
            central_phases.pop()
        dist = distributed_moat_growing(inst)
        dist_phases = [[] for _ in range(dist.num_phases)]
        for m in dist.merges:
            dist_phases[m.phase - 1].append((m.terminal_a, m.terminal_b))

        def moats_after_each(phases):
            moats, history = UnionFind(inst.terminals), []
            for phase in phases:
                for a, b in phase:
                    assert moats.union(a, b), "a merge joins two moats"
                history.append(
                    sorted(sorted(map(repr, moat)) for moat in moats.sets())
                )
            return history

        assert moats_after_each(dist_phases) == moats_after_each(
            central_phases
        )

    @pytest.mark.parametrize("seed", [79, 175])
    def test_weight_agrees_where_equal_mu_ties_split_phases(self, seed):
        """On these seeds the two tie-breaks at equal µ end a merge phase
        at different merges, so the per-phase moats differ; the final
        weights still agree."""
        inst = make_random_instance(
            seed, n_range=(8, 24), k_range=(2, 5), max_weight=50
        )
        central = moat_growing(inst)
        dist = distributed_moat_growing(inst)
        assert dist.solution.weight == central.solution.weight

    @pytest.mark.parametrize("seed", [79, 175, *range(20)])
    def test_merges_happen_at_algorithm_1_growth_levels(self, seed):
        """The emulation's merges happen at the levels of total growth of
        Algorithm 1's merges (each AcceptedMerge.mu counts from its phase
        start, which is the previous phase's last µ)."""
        inst = make_random_instance(
            seed, n_range=(8, 24), k_range=(2, 5), max_weight=50
        )
        central, total = set(), 0
        for event in moat_growing(inst).events:
            total += event.mu
            central.add(total)
        emulated, phase_start, level, phase = set(), 0, 0, None
        for m in distributed_moat_growing(inst).merges:
            if m.phase != phase:
                phase, phase_start = m.phase, level
            level = phase_start + m.mu
            emulated.add(level)
        assert emulated == central

    @pytest.mark.parametrize("seed", range(8))
    def test_phase_bound(self, seed):
        """Lemma 4.4: at most 2k merge phases."""
        inst = make_random_instance(seed)
        dist = distributed_moat_growing(inst)
        assert dist.num_phases <= 2 * inst.num_components

    def test_phase_bound_violation_is_loud(self, monkeypatch):
        """Lemma 4.4's guard fires past 2k phases and names the count."""
        case = next(c for c in GOLDEN if c["num_phases"] == 3)
        inst = golden_instance(case)
        monkeypatch.setattr(
            SteinerForestInstance, "num_components", property(lambda self: 1)
        )
        with pytest.raises(SimulationError, match=r"phase 3 > 2k = 2"):
            distributed_moat_growing(inst)

    def test_trivial_instance_no_phases(self, grid33):
        inst = SteinerForestInstance(grid33, {0: "x"})
        dist = distributed_moat_growing(inst)
        assert dist.solution.edges == frozenset()
        assert dist.num_phases == 0

    def test_mst_special_case(self, grid33):
        import networkx as nx

        inst = SteinerForestInstance(grid33, {v: 0 for v in grid33.nodes})
        dist = distributed_moat_growing(inst)
        mst = nx.minimum_spanning_tree(grid33.to_networkx())
        expected = sum(d["weight"] for _, _, d in mst.edges(data=True))
        assert dist.solution.weight == expected


class TestRoundComplexity:
    @pytest.mark.parametrize("seed", range(6))
    def test_rounds_within_O_ks_plus_t(self, seed):
        """Theorem 4.17's shape: rounds ≤ c(k·s + t + D)."""
        inst = make_random_instance(seed)
        dist = distributed_moat_growing(inst)
        graph = inst.graph
        s = graph.shortest_path_diameter()
        k = inst.num_components
        t = inst.num_terminals
        d = graph.unweighted_diameter()
        bound = 40 * (2 * k * (s + d) + t + d + 1)
        assert dist.rounds <= bound

    def test_phase_breakdown_recorded(self):
        inst = make_random_instance(0)
        dist = distributed_moat_growing(inst)
        assert "setup" in dist.run.phase_rounds
        assert any(
            name.startswith("phase-") for name in dist.run.phase_rounds
        )

    def test_external_run_ledger_reused(self):
        inst = make_random_instance(1)
        run = CongestRun(inst.graph)
        dist = distributed_moat_growing(inst, run)
        assert dist.run is run
        assert run.rounds == dist.rounds

    def test_congestion_never_violated(self):
        """The simulation enforces one message per edge per round; a
        completed run certifies no violation occurred."""
        inst = make_random_instance(2)
        dist = distributed_moat_growing(inst)
        assert dist.run.messages > 0


class TestIntegerMergeGrid:
    @pytest.mark.parametrize("ledger", LEDGERS)
    def test_bellman_ford_sees_only_ints(self, ledger, monkeypatch):
        """Every phase's Bellman–Ford gets int starts, int leftovers and
        an int scale, and returns int distances, also on a run whose µ
        are half-integers."""
        case = next(c for c in GOLDEN if c["seed"] == 7)
        inst = golden_instance(case)
        seen = []

        def spy(graph, sources, run, *, leftover, scale, **kwargs):
            seen.extend(d0 for d0, _ in sources.values())
            seen.extend(leftover.values())
            seen.append(scale)
            result = bellman_ford(
                graph, sources, run, leftover=leftover, scale=scale, **kwargs
            )
            seen.extend(result.dist.values())
            return result

        monkeypatch.setattr(distributed_module, "bellman_ford", spy)
        dist = distributed_moat_growing(
            inst, run=make_ledger_run(ledger, inst.graph)
        )
        assert dist.num_phases == case["num_phases"]
        assert any(m.mu.denominator == 2 for m in dist.merges)
        assert seen and all(type(value) is int for value in seen)

    @pytest.mark.parametrize("ledger", LEDGERS)
    def test_golden_merge_sequences(self, ledger):
        """Merge sequences recorded from the Fraction-keyed implementation
        (multi-phase instances, half-integer µ) are reproduced exactly."""
        for case in GOLDEN:
            inst = golden_instance(case)
            dist = distributed_moat_growing(
                inst, run=make_ledger_run(ledger, inst.graph)
            )
            merges = [
                [m.phase, str(m.mu), m.terminal_a, m.terminal_b,
                 list(m.edge), m.path]
                for m in dist.merges
            ]
            assert merges == case["merges"], case["seed"]
            assert dist.num_phases == case["num_phases"]
            assert (dist.rounds, dist.run.messages) == (
                case["rounds"], case["messages"]
            )
            assert dist.solution.weight == case["weight"]

    @pytest.mark.parametrize("ledger", LEDGERS)
    def test_grid_keys_order_like_mu(self, ledger):
        """Int keys on the grid 1/(2·scale) order the candidates as their
        µ do: within a phase the accepted µ never decrease, and every µ is
        dyadic (a half-sum of integer weights and dyadic radii)."""
        for case in GOLDEN:
            inst = golden_instance(case)
            dist = distributed_moat_growing(
                inst, run=make_ledger_run(ledger, inst.graph)
            )
            by_phase = {}
            for m in dist.merges:
                by_phase.setdefault(m.phase, []).append(m.mu)
            for mus in by_phase.values():
                assert mus == sorted(mus), case["seed"]
            for m in dist.merges:
                den = m.mu.denominator
                assert den & (den - 1) == 0, (case["seed"], m.mu)

    @pytest.mark.skipif(
        not numpy_tier_available(), reason="optional numpy extra not installed"
    )
    def test_grid_doubles_only_on_half_integer_mu(self, monkeypatch):
        """The grid starts at scale 1 and doubles at a phase end exactly
        when that phase's µ lies off the grid 1/scale."""
        from repro.perf import npkernels

        real = npkernels.scaled_reduced_weights
        doubled = 0
        for case in GOLDEN:
            inst = golden_instance(case)
            scales = []

            def spy(run, leftover, scale):
                scales.append(scale)
                return real(run, leftover, scale)

            monkeypatch.setattr(npkernels, "scaled_reduced_weights", spy)
            dist = distributed_moat_growing(
                inst, run=make_ledger_run("numpy", inst.graph)
            )
            assert len(scales) == dist.num_phases
            phase_mu = {m.phase: m.mu for m in dist.merges}
            assert scales[0] == 1
            for phase, (scale, nxt) in enumerate(
                zip(scales, scales[1:]), start=1
            ):
                off_grid = (phase_mu[phase] * scale).denominator != 1
                assert nxt == (2 * scale if off_grid else scale), case["seed"]
                doubled += off_grid
        assert doubled  # the golden runs do cross a half-integer µ

    @pytest.mark.skipif(
        not numpy_tier_available(), reason="optional numpy extra not installed"
    )
    def test_numpy_phase_kernels_accept_and_match_reference(
        self, monkeypatch
    ):
        """Every phase's Bellman–Ford runs the numpy kernel (no decline)
        across grid doublings, and its result equals the reference
        ledger's on the same Ŵ_j."""
        from repro.perf import npkernels

        kernel = npkernels.bellman_ford_numpy
        accepted = []

        def kernel_spy(*args):
            result = kernel(*args)
            accepted.append(result is not None)
            return result

        def spy(graph, sources, run, **kwargs):
            scales.add(kwargs["scale"])
            got = bellman_ford(graph, sources, run, **kwargs)
            want = bellman_ford(graph, sources, CongestRun(graph), **kwargs)
            for field in ("dist", "tag", "parent"):
                assert list(getattr(got, field).items()) == list(
                    getattr(want, field).items()
                )
            assert (got.iterations, got.stabilized) == (
                want.iterations, want.stabilized
            )
            return got

        monkeypatch.setattr(npkernels, "bellman_ford_numpy", kernel_spy)
        monkeypatch.setattr(distributed_module, "bellman_ford", spy)
        scales = set()
        for case in GOLDEN:
            inst = golden_instance(case)
            run = make_ledger_run("numpy", inst.graph)
            distributed_moat_growing(inst, run=run)
            assert not run.declines, case["seed"]
        assert accepted and all(accepted)
        assert len(accepted) == sum(case["num_phases"] for case in GOLDEN)
        assert scales > {1}  # the golden runs do double the grid


#: sha256 of (weight, rounds, messages, sorted per-edge traffic, merge
#: sequence) of the gnp n=512 clustered run below, recorded before the
#: candidate merges were filtered at the node that makes them.
GNP512_CLUSTERED_DIGEST = (
    "c4e58589071754207fef3d002cc6c5a1fe1e6065ee6703b33045d8da50cda584"
)


@pytest.fixture(scope="module")
def gnp512_clustered():
    spec = ScenarioSpec(
        name="gnp512-clustered", family="gnp", algorithms=("distributed",),
        grid={"n": 512, "p": 0.016, "k": 8, "component_size": 2,
              "placement": "clustered"},
        seeds=1,
    )
    return build_instance(expand_jobs(spec)[0])


@pytest.mark.parametrize("ledger", LEDGERS)
def test_multi_phase_run_at_scale_is_pinned(gnp512_clustered, ledger):
    """One merge phase per component at n = 512 (clustered components
    close one by one): the merge sequence and the ledger stay exactly as
    recorded, on every ledger."""
    inst = gnp512_clustered
    dist = distributed_moat_growing(
        inst, run=make_ledger_run(ledger, inst.graph)
    )
    run = dist.run
    assert (dist.num_phases, run.rounds) == (8, 254)
    record = (
        dist.solution.weight, run.rounds, run.messages,
        sorted(run.edge_messages.items()),
        [(m.phase, str(m.mu), m.terminal_a, m.terminal_b, m.edge, m.path)
         for m in dist.merges],
    )
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert digest == GNP512_CLUSTERED_DIGEST
