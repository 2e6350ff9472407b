"""The perf subsystem: profiler exactness, zero-effect, fast-path
conformance, and the auto backend.

Three contracts are pinned here:

1. **Profiler exactness** — per-phase counters equal the ledger's own
   accounting on a hand-computable execution, and the injected-clock
   wall-time attribution is exact.
2. **Profiling is free** — attaching a profiler changes nothing about
   the computation: solver outputs and the ledger are byte-identical,
   job cache keys without the flag are unchanged from schema v1–v4, and
   the algorithm seed ignores the flag.
3. **Ledger tier conformance** — the distributed and sublinear
   pipelines under every ledger tier (and under ``auto``) reproduce the
   reference execution field by field across the graph family matrix,
   mirroring the message-level backend conformance suite (the pins
   recorded before the tiers shared one path are in
   ``tests/test_ledger_golden.py``).
"""

import random
import time

import pytest

from repro.congest.bfs import build_bfs_tree
from repro.congest.broadcast import broadcast_items, upcast_items
from repro.congest.run import CongestRun
from repro.congest.simulator import FloodMaxLeaderElection, Simulator
from repro.core.distributed import distributed_moat_growing
from repro.core.moat import moat_growing
from repro.core.sublinear import sublinear_moat_growing
from repro.engine.algorithms import ALGORITHMS
from repro.engine.jobs import Job
from repro.engine.registry import GRAPH_FAMILIES
from repro.engine.runner import execute_job
from repro.exceptions import CongestViolationError
from repro.model.graph import WeightedGraph
from repro.model.instance import SteinerForestInstance
from repro.perf import (
    FastCongestRun,
    PhaseProfiler,
    make_ledger_run,
    maybe_span,
    render_profile_report,
)
from repro.simbackend import (
    AUTO_THRESHOLD_NODES,
    NUMPY_THRESHOLD_NODES,
    AutoBackend,
    choose_engine_name,
    numpy_tier_available,
)
from repro.workloads import random_instance

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(),
    reason="optional numpy extra not installed",
)

FAMILY_PARAMS = {
    "gnp": {"n": 14, "p": 0.3},
    "grid": {"rows": 3, "cols": 4},
    "ring": {"num_blobs": 3, "blob_size": 3},
    "powerlaw": {"n": 14, "m_attach": 2},
    "caterpillar": {"spine": 5, "legs": 2},
}


def _instance(family):
    graph = GRAPH_FAMILIES[family].build(
        random.Random(0xE18), **FAMILY_PARAMS[family]
    )
    terminals = {
        graph.nodes[0]: "a",
        graph.nodes[-1]: "a",
        graph.nodes[1]: "b",
        graph.nodes[-2]: "b",
    }
    return SteinerForestInstance(graph, terminals)


def _ledger_fingerprint(result):
    return (
        result.solution.weight,
        sorted(result.solution.edges, key=repr),
        result.rounds,
        result.run.messages,
        sorted(result.run.edge_messages.items(), key=repr),
        dict(result.run.phase_rounds),
    )


class FakeClock:
    """A deterministic perf_counter: advances 1.0 per call."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestPhaseProfiler:
    def test_counters_exact_on_manual_ledger(self):
        graph = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
        run = CongestRun(graph)
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.attach(run)
        run.set_phase("alpha")
        run.tick({(0, 1): 1, (1, 2): 1})
        run.tick({(1, 0): 1})
        run.charge_rounds(3, "analytic")
        run.set_phase("beta")
        run.tick()
        run.charge_messages([(0, 1)])
        run.charge_messages([(1, 2), (1, 2)])
        profiler.finish()
        by_name = {s.name: s for s in profiler.phases}
        assert by_name["alpha"].rounds == 5
        assert by_name["alpha"].messages == 3
        assert by_name["beta"].rounds == 1
        assert by_name["beta"].messages == 3
        # Cross-check against the ledger's own accounting.
        totals = profiler.to_dict(bandwidth_bits=run.bandwidth_bits)["totals"]
        assert totals["rounds"] == run.rounds == 6
        assert totals["messages"] == run.messages == 6
        assert totals["bits"] == run.bits

    def test_wall_time_attribution_with_injected_clock(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.switch_phase("outer")  # clock -> 1
        with profiler.span("inner"):  # flush at 2 (outer +1), 3 on exit
            pass
        profiler.finish()  # flush at 4 (outer +1)
        by_name = {s.name: s for s in profiler.phases}
        # Self-time semantics: the inner span's second is not double
        # counted on the phase.
        assert by_name["outer"].wall_time == pytest.approx(2.0)
        assert by_name["outer/inner"].wall_time == pytest.approx(1.0)

    def test_profiler_totals_match_pipeline_ledger(self):
        # Hand-checkable instance: a path, one demand between the ends.
        graph = WeightedGraph(
            [0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
        )
        instance = SteinerForestInstance(graph, {0: "a", 3: "a"})
        run = CongestRun(graph)
        profiler = PhaseProfiler()
        profiler.attach(run)
        result = distributed_moat_growing(instance, run=run)
        profiler.finish()
        assert result.solution.weight == 3
        totals = profiler.to_dict()["totals"]
        assert totals["rounds"] == run.rounds
        assert totals["messages"] == run.messages
        # Phase frames cover the solver's narration.
        names = {s.name for s in profiler.phases}
        assert "setup" in names and "path-selection" in names
        assert any(name.startswith("phase-") for name in names)

    def test_phase_switch_inside_span_wins(self):
        # A span wrapped around a whole solver must not pop the phase
        # frame the solver's set_phase installed (and set_phase(None)
        # inside a span must not raise on exit).
        profiler = PhaseProfiler(clock=FakeClock())
        with profiler.span("whole-solve"):
            profiler.switch_phase("setup")
            profiler.add_rounds(2)
        profiler.add_rounds(1)  # still attributed to the live phase
        with profiler.span("outer"):
            profiler.switch_phase(None)
        profiler.finish()
        by_name = {s.name: s for s in profiler.phases}
        assert by_name["setup"].rounds == 3
        assert by_name["whole-solve"].rounds == 0

    def test_maybe_span_without_profiler_is_noop(self):
        with maybe_span(None, "anything"):
            value = 42
        assert value == 42

    def test_render_profile_report_smoke(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.switch_phase("setup")
        profiler.add_rounds(4)
        profiler.add_messages(10)
        profiler.finish()
        record = {
            "scenario": "s",
            "algorithm": "distributed",
            "backend_name": "flatarray",
            "profile": profiler.to_dict(),
        }
        text = render_profile_report([record])
        assert "setup" in text and "flatarray" in text
        assert render_profile_report([]).startswith("no profiled records")

    def test_report_straggler_phases_average_over_the_whole_group(self):
        # A phase only one of two jobs reaches must print half its value
        # ("mean per job" is over the group, not over reaching jobs).
        short = {"phases": [{"phase": "p1", "rounds": 4, "messages": 2,
                             "wall_time": 0.0}]}
        long = {
            "phases": [
                {"phase": "p1", "rounds": 4, "messages": 2, "wall_time": 0.0},
                {"phase": "p2", "rounds": 6, "messages": 8, "wall_time": 0.0},
            ]
        }
        base = {"scenario": "s", "algorithm": "a", "backend_name": "reference"}
        text = render_profile_report(
            [dict(base, profile=short), dict(base, profile=long)]
        )
        p2_row = next(line for line in text.splitlines() if line.startswith("p2"))
        assert "3.0" in p2_row and "4.0" in p2_row


class TestProfilingIsFree:
    def test_solver_output_identical_with_profiler(self):
        instance = _instance("gnp")
        plain = distributed_moat_growing(instance, run=CongestRun(instance.graph))
        run = CongestRun(instance.graph)
        PhaseProfiler().attach(run)
        profiled = distributed_moat_growing(instance, run=run)
        assert _ledger_fingerprint(plain) == _ledger_fingerprint(profiled)

    def test_moat_output_identical_with_profiler(self):
        instance = _instance("grid")
        plain = moat_growing(instance)
        profiled = moat_growing(instance, profiler=PhaseProfiler())
        assert plain.solution.weight == profiled.solution.weight
        assert plain.solution.edges == profiled.solution.edges

    def test_unprofiled_job_identity_is_schema_v4_stable(self):
        legacy = {
            "scenario": "s",
            "family": "gnp",
            "family_params": {"n": 12, "p": 0.3},
            "k": 2,
            "component_size": 2,
            "algorithm": "moat",
            "algo_params": {},
            "seed_index": 0,
            "exact": False,
        }
        job = Job.from_dict(legacy)
        assert job.profile is False
        assert "profile" not in job.identity()
        # The profiled twin hashes to its own key but draws the same
        # coin flips and instance.
        profiled = Job.from_dict(dict(legacy, profile=True))
        assert profiled.key != job.key
        assert profiled.algorithm_seed() == job.algorithm_seed()
        assert profiled.graph_seed() == job.graph_seed()
        assert profiled.placement_seed() == job.placement_seed()

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_execute_job_profile_only_adds_payload(self, algorithm):
        base = {
            "scenario": "perf-test",
            "family": "gnp",
            "family_params": {"n": 10, "p": 0.4},
            "k": 2,
            "component_size": 2,
            "algorithm": algorithm,
            "seed_index": 0,
        }
        plain = execute_job(base)
        profiled = execute_job(dict(base, profile=True))
        assert "profile" not in plain
        phases = profiled["profile"]["phases"]
        assert phases and all("wall_time" in row for row in phases)
        for metric in ("weight", "rounds", "messages", "n", "m", "t"):
            if metric in plain["metrics"]:
                assert plain["metrics"][metric] == profiled["metrics"][metric]

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_profile_times_the_instance_build_as_its_own_row(
        self, algorithm, monkeypatch
    ):
        from repro.engine import runner

        def slow_build(job):
            started = time.perf_counter()
            while time.perf_counter() - started < 0.1:
                pass
            return build(job)

        build = runner.build_instance
        monkeypatch.setattr(runner, "build_instance", slow_build)
        record = execute_job({
            "scenario": "perf-test", "family": "gnp",
            "family_params": {"n": 10, "p": 0.4}, "k": 2,
            "component_size": 2, "algorithm": algorithm, "seed_index": 0,
            "profile": True,
        })
        first = record["profile"]["phases"][0]
        assert first["phase"] == "build_instance"
        assert first["rounds"] == first["messages"] == 0
        assert first["wall_time"] >= 0.1
        # metrics.wall_time is the solve alone.
        assert record["metrics"]["wall_time"] < first["wall_time"]


class TestLedgerFastPathConformance:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize(
        "engine",
        [
            "flatarray",
            "auto",
            pytest.param("numpy", marks=requires_numpy),
        ],
    )
    def test_distributed_pipeline_matches_reference(self, family, engine):
        instance = _instance(family)
        reference = distributed_moat_growing(
            instance, run=CongestRun(instance.graph)
        )
        if engine == "auto":
            # Force the flat choice at test sizes so auto's delegation
            # is exercised, not just its small-instance identity path.
            fast_run = make_ledger_run(
                {"name": "auto", "params": {"threshold": 1}}, instance.graph
            )
        elif engine == "numpy":
            fast_run = make_ledger_run("numpy", instance.graph)
        else:
            fast_run = FastCongestRun(instance.graph)
        fast = distributed_moat_growing(instance, run=fast_run)
        assert _ledger_fingerprint(reference) == _ledger_fingerprint(fast)
        merges_ref = [
            (m.phase, str(m.mu), m.terminal_a, m.terminal_b, m.edge, m.path)
            for m in reference.merges
        ]
        merges_fast = [
            (m.phase, str(m.mu), m.terminal_a, m.terminal_b, m.edge, m.path)
            for m in fast.merges
        ]
        assert merges_ref == merges_fast

    @pytest.mark.parametrize("family", ["gnp", "grid", "ring"])
    @pytest.mark.parametrize(
        "engine",
        ["flatarray", pytest.param("numpy", marks=requires_numpy)],
    )
    def test_sublinear_pipeline_matches_reference(self, family, engine):
        instance = _instance(family)
        reference = sublinear_moat_growing(
            instance, run=CongestRun(instance.graph)
        )
        fast = sublinear_moat_growing(
            instance, run=make_ledger_run(engine, instance.graph)
        )
        assert _ledger_fingerprint(reference) == _ledger_fingerprint(fast)
        assert reference.sigma == fast.sigma
        assert reference.num_growth_phases == fast.num_growth_phases
        assert reference.num_merge_phases == fast.num_merge_phases

    def test_tree_primitives_match_reference(self):
        instance = _instance("powerlaw")
        graph = instance.graph

        def run_primitives(run):
            tree = build_bfs_tree(graph, run)
            items = upcast_items(
                tree,
                {v: [(repr(v), "payload")] for v in graph.nodes},
                run,
            )
            broadcast_items(tree, items, run)
            return (
                tree.root,
                dict(tree.parent),
                tree.depth,
                items,
                run.rounds,
                run.messages,
                sorted(run.edge_messages.items(), key=repr),
            )

        baseline = run_primitives(CongestRun(graph))
        assert baseline == run_primitives(FastCongestRun(graph))
        if numpy_tier_available():
            assert baseline == run_primitives(make_ledger_run("numpy", graph))

    def test_fast_tick_validation_matches_reference_errors(self):
        graph = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
        for traffic in ({(0, 2): 1}, {(0, 1): 2}):
            with pytest.raises(CongestViolationError) as ref_error:
                CongestRun(graph).tick(traffic)
            with pytest.raises(CongestViolationError) as fast_error:
                FastCongestRun(graph).tick(traffic)
            assert str(fast_error.value) == str(ref_error.value)

    def test_fast_tick_max_rounds_matches_reference_error(self):
        from repro.exceptions import SimulationError

        graph = WeightedGraph([0, 1], [(0, 1, 1)])
        errors = []
        for ledger in (
            CongestRun(graph, max_rounds=1),
            FastCongestRun(graph, max_rounds=1),
        ):
            ledger.tick()
            with pytest.raises(SimulationError) as caught:
                ledger.tick()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


def _path_graph(num_nodes):
    """A cheap connected graph at exactly ``num_nodes`` nodes."""
    return WeightedGraph(
        list(range(num_nodes)),
        [(i, i + 1, 1) for i in range(num_nodes - 1)],
    )


#: The auto heuristic's tier boundaries, one row per side of each
#: crossover: (num_nodes, engine without the numpy extra, engine with
#: it). The defaults are AUTO_THRESHOLD_NODES = 64 and
#: NUMPY_THRESHOLD_NODES = 1024.
TIER_BOUNDARY_CASES = [
    (63, "reference", "reference"),
    (64, "flatarray", "flatarray"),
    (1023, "flatarray", "flatarray"),
    (1024, "flatarray", "numpy"),
]


def _expected_tier(without_numpy, with_numpy):
    return with_numpy if numpy_tier_available() else without_numpy


def _ledger_type(engine_name):
    if engine_name == "reference":
        return CongestRun
    if engine_name == "numpy":
        from repro.perf.npkernels import NumpyCongestRun

        return NumpyCongestRun
    assert engine_name == "flatarray"
    return FastCongestRun


class TestAutoBackend:
    def test_threshold_constants_are_ordered(self):
        assert 1 < AUTO_THRESHOLD_NODES < NUMPY_THRESHOLD_NODES
        assert TIER_BOUNDARY_CASES[0][0] == AUTO_THRESHOLD_NODES - 1
        assert TIER_BOUNDARY_CASES[1][0] == AUTO_THRESHOLD_NODES
        assert TIER_BOUNDARY_CASES[2][0] == NUMPY_THRESHOLD_NODES - 1
        assert TIER_BOUNDARY_CASES[3][0] == NUMPY_THRESHOLD_NODES

    @pytest.mark.parametrize(
        ("num_nodes", "without_numpy", "with_numpy"), TIER_BOUNDARY_CASES
    )
    def test_choose_engine_name_boundaries(
        self, num_nodes, without_numpy, with_numpy
    ):
        expected = _expected_tier(without_numpy, with_numpy)
        assert choose_engine_name(num_nodes) == expected

    @pytest.mark.parametrize(
        ("num_nodes", "without_numpy", "with_numpy"), TIER_BOUNDARY_CASES
    )
    def test_ledger_tier_boundaries(
        self, num_nodes, without_numpy, with_numpy
    ):
        expected = _expected_tier(without_numpy, with_numpy)
        run = make_ledger_run("auto", _path_graph(num_nodes))
        assert type(run) is _ledger_type(expected)

    def test_ledger_heuristic_thresholds(self):
        small = random_instance(8, 2, random.Random(1)).graph
        assert type(make_ledger_run("auto", small)) is CongestRun
        assert type(
            make_ledger_run(
                {"name": "auto", "params": {"threshold": 4}}, small
            )
        ) is FastCongestRun
        assert type(make_ledger_run("flatarray", small)) is FastCongestRun
        assert type(make_ledger_run("reference", small)) is CongestRun
        assert type(
            make_ledger_run(
                {"name": "auto", "params": {"numpy_threshold": 4}}, small
            )
        ) is CongestRun
        with pytest.raises(ValueError):
            make_ledger_run("warpdrive", small)
        # Bad engine parameters are rejected exactly like the simulator
        # facade rejects them — one --backend spec, one validation path.
        with pytest.raises(ValueError):
            make_ledger_run(
                {"name": "flatarray", "params": {"typo": 1}}, small
            )
        with pytest.raises(ValueError):
            make_ledger_run(
                {"name": "auto", "params": {"threshold": "many"}}, small
            )

    @requires_numpy
    def test_ledger_numpy_overrides(self):
        small = random_instance(8, 2, random.Random(1)).graph
        from repro.perf.npkernels import NumpyCongestRun

        assert type(make_ledger_run("numpy", small)) is NumpyCongestRun
        # Lowered thresholds route an 8-node graph to the top tier.
        spec = {
            "name": "auto",
            "params": {"threshold": 4, "numpy_threshold": 8},
        }
        assert type(make_ledger_run(spec, small)) is NumpyCongestRun
        # The reference floor still wins below the first threshold.
        tiny_spec = {
            "name": "auto",
            "params": {"threshold": 64, "numpy_threshold": 1},
        }
        assert type(make_ledger_run(tiny_spec, small)) is CongestRun

    def test_simulator_delegation_picks_by_size(self):
        graph = random_instance(8, 2, random.Random(2)).graph
        programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
        small_sim = Simulator(graph, programs, backend="auto")
        assert small_sim.backend.name == "auto"
        assert small_sim.backend.engine.name == "reference"
        forced = Simulator(
            graph,
            {v: FloodMaxLeaderElection() for v in graph.nodes},
            backend=AutoBackend(threshold=1),
        )
        assert forced.backend.engine.name == "flatarray"
        assert forced.run_to_completion() > 0
        assert all(
            p.leader == max(graph.nodes) for p in forced.programs.values()
        )

    @requires_numpy
    def test_simulator_delegation_picks_numpy_tier(self):
        graph = random_instance(8, 2, random.Random(2)).graph
        forced = Simulator(
            graph,
            {v: FloodMaxLeaderElection() for v in graph.nodes},
            backend=AutoBackend(threshold=1, numpy_threshold=1),
        )
        assert forced.backend.engine.name == "numpy"
        assert forced.run_to_completion() > 0
        assert all(
            p.leader == max(graph.nodes) for p in forced.programs.values()
        )

    def test_spec_round_trip_and_params(self):
        assert AutoBackend().spec() == {"name": "auto", "params": {}}
        assert AutoBackend(threshold=7).spec() == {
            "name": "auto",
            "params": {"threshold": 7},
        }
        assert AutoBackend(numpy_threshold=9).spec() == {
            "name": "auto",
            "params": {"numpy_threshold": 9},
        }
        assert AUTO_THRESHOLD_NODES > 1

    def test_unbound_engine_raises(self):
        with pytest.raises(RuntimeError):
            AutoBackend().engine
