"""Tests for the CONGEST ledger: rounds, congestion, cut metering,
recording and re-charging, and the bulk charges of whole rounds."""

import networkx as nx
import pytest

from repro.congest import CongestRun, bellman_ford, build_bfs_tree
from repro.congest.bfs import BFSTree, TreeUpEdges
from repro.engine.jobs import expand_jobs
from repro.engine.registry import ScenarioSpec
from repro.engine.runner import execute_job
from repro.exceptions import CongestViolationError, SimulationError
from repro.model import WeightedGraph
from repro.perf import PhaseProfiler
from tests.test_ledger_golden import requires_numpy
from tests.test_pipeline_oracle import LEDGERS, _ledger_state


class TestLedger:
    def test_tick_advances_round(self, path5):
        run = CongestRun(path5)
        run.tick()
        assert run.rounds == 1

    def test_tick_counts_messages(self, path5):
        run = CongestRun(path5)
        run.tick({(0, 1): 1, (1, 2): 1})
        assert run.messages == 2
        assert run.bits == 2 * run.bandwidth_bits

    def test_tick_rejects_two_messages_per_edge(self, path5):
        run = CongestRun(path5)
        with pytest.raises(CongestViolationError):
            run.tick({(0, 1): 2})

    def test_tick_rejects_non_edges(self, path5):
        run = CongestRun(path5)
        with pytest.raises(CongestViolationError):
            run.tick({(0, 4): 1})

    def test_opposite_directions_both_allowed(self, path5):
        run = CongestRun(path5)
        run.tick({(0, 1): 1, (1, 0): 1})
        assert run.messages == 2

    def test_charge_rounds(self, path5):
        run = CongestRun(path5)
        run.charge_rounds(10, "test")
        assert run.rounds == 10

    def test_charge_negative_rejected(self, path5):
        run = CongestRun(path5)
        with pytest.raises(ValueError):
            run.charge_rounds(-1)

    def test_max_rounds_guard(self, path5):
        run = CongestRun(path5, max_rounds=3)
        with pytest.raises(SimulationError):
            for _ in range(5):
                run.tick()

    def test_bandwidth_default_is_logarithmic(self, path5):
        run = CongestRun(path5)
        assert run.bandwidth_bits == 4 * 3  # ceil(log2 5) = 3

    def test_phase_attribution(self, path5):
        run = CongestRun(path5)
        run.set_phase("alpha")
        run.tick()
        run.charge_rounds(2)
        run.set_phase("beta")
        run.tick()
        assert run.phase_rounds == {"alpha": 3, "beta": 1}

    def test_cut_metering(self, path5):
        run = CongestRun(path5)
        run.tick({(1, 2): 1, (3, 4): 1})
        run.tick({(2, 1): 1})
        assert run.cut_messages([(1, 2)]) == 2
        assert run.cut_bits([(1, 2)]) == 2 * run.bandwidth_bits
        assert run.cut_messages([(0, 1)]) == 0


def _bfs_then_decompose(ledger, graph, recharge):
    """A BFS tree, then one Bellman–Ford run twice, or recorded and
    re-charged, then a full-graph tick: the ledger and profiler state
    at the end."""
    run = ledger(graph)
    profiler = PhaseProfiler()
    profiler.attach(run)
    run.set_phase("setup")
    build_bfs_tree(graph, run)
    pending = getattr(run, "_pending_dirty", None)
    run.set_phase("decompose")
    sources = {graph.nodes[0]: (0, "a"), graph.nodes[-1]: (0, "b")}
    with profiler.span("bellman-ford"):
        if recharge:
            before = (run.rounds, run.messages)
            with run.recording() as record:
                bellman_ford(graph, sources, run)
            assert (record.rounds, record.messages) == (
                run.rounds - before[0], run.messages - before[1]
            )
            assert sum(record.traffic.values()) == record.messages
        else:
            bellman_ford(graph, sources, run)
    with profiler.span("bellman-ford"):
        if recharge:
            run.recharge(record)
        else:
            bellman_ford(graph, sources, run)
    run.tick_neighbors(graph)
    profiler.finish()
    frames = [(f.name, f.rounds, f.messages) for f in profiler.phases]
    state = (
        run.rounds, run.messages, run.edge_messages, run.phase_rounds, frames
    )
    return state, pending


@pytest.mark.parametrize("ledger", LEDGERS)
@pytest.mark.parametrize("seed", range(3))
def test_recharge_equals_running_the_primitive_again(ledger, seed):
    graph = WeightedGraph.from_networkx(
        nx.connected_watts_strogatz_graph(20, 4, 0.3, seed=seed)
    )
    recharged, pending = _bfs_then_decompose(ledger, graph, recharge=True)
    executed, _ = _bfs_then_decompose(ledger, graph, recharge=False)
    assert recharged == executed
    if pending is not None:
        assert pending  # the numpy BFS kernel's charges were still unfolded


@pytest.mark.parametrize("ledger", LEDGERS)
def test_recharge_past_max_rounds_raises(ledger, path5):
    run = ledger(path5)
    with run.recording() as record:
        for _ in range(3):
            run.tick_neighbors(path5)
    run.max_rounds = 5
    with pytest.raises(SimulationError):
        run.recharge(record)


def _mixed_graph():
    """Nodes of two types, so repr order and canonical edges mix them."""
    edges = [
        (0, 1, 3), (1, "a", 1), ("a", "b", 2), ("b", 2, 5), (2, 0, 4),
        (1, "c", 2), ("c", 10, 1), (10, "b", 7), ("a", 2, 1), (10, 0, 2),
    ]
    return WeightedGraph.from_edges(edges)


@pytest.mark.parametrize("ledger", LEDGERS)
def test_tick_neighbors_with_all_senders_matches_explicit_senders(ledger):
    graph = _mixed_graph()
    cached = graph.all_out_edges()
    assert cached == tuple(e for v in graph.nodes for e in graph.out_edges(v))
    implicit, explicit = ledger(graph), ledger(graph)
    for run in (implicit, explicit):
        run.set_phase("exchange")
    for _ in range(2):
        implicit.tick_neighbors(graph)
        explicit.tick_neighbors(graph, senders=list(graph.nodes))
    assert graph.all_out_edges() is cached
    assert cached == tuple(e for v in graph.nodes for e in graph.out_edges(v))
    assert implicit.edge_messages == explicit.edge_messages
    assert dict(implicit.edge_messages) == {
        (u, v): 4 for u, v, _ in graph.edges()
    }
    assert (implicit.messages, implicit.rounds) == (
        explicit.messages, explicit.rounds
    ) == (4 * graph.num_edges, 2)
    assert implicit.phase_rounds == explicit.phase_rounds == {"exchange": 2}


@pytest.mark.parametrize("ledger", LEDGERS)
def test_charge_messages_rejects_a_generator_untouched(ledger):
    graph = _mixed_graph()
    run = ledger(graph)
    run.set_phase("exchange")
    run.tick_edges([(u, v) for u, v, _ in graph.edges()])
    before = _ledger_state(run)
    with pytest.raises(TypeError):
        run.charge_messages((u, v) for u, v, _ in graph.edges())
    assert _ledger_state(run) == before


def _peak_matches_counter(run):
    """Take ``max_edge_messages()`` before anything reads (and so folds)
    ``edge_messages``, compare it with the Counter's max, and say
    whether a numpy ledger had kernel charges pending."""
    pending = getattr(run, "_pending_dirty", None)
    peak = run.max_edge_messages()
    assert peak == max(run.edge_messages.values(), default=0)
    return peak, pending


@pytest.mark.parametrize("ledger", LEDGERS)
def test_max_edge_messages_is_the_counters_max(ledger):
    graph = _mixed_graph()
    run = ledger(graph)
    assert _peak_matches_counter(run)[0] == 0
    run.tick({(0, 1): 1, (1, 0): 1})  # Python-path charges only
    assert _peak_matches_counter(run)[0] == 2
    # Kernel charges (the numpy BFS flood and all-neighbor round) land on
    # edges the Counter already holds.
    build_bfs_tree(graph, run)
    run.tick_neighbors(graph)
    run.tick_edges([(0, 1)])
    before, pending = _peak_matches_counter(run)
    assert pending is not False
    with run.recording() as record:
        assert _peak_matches_counter(run)[0] == 0
        build_bfs_tree(graph, run)
        run.tick_neighbors(graph)
        inside, pending = _peak_matches_counter(run)
        assert pending is not False
    assert inside == max(record.traffic.values())
    assert before < _peak_matches_counter(run)[0] <= before + inside


@pytest.mark.parametrize("ledger", LEDGERS)
def test_tree_up_edges_are_the_canonical_pairs(ledger):
    graph = _mixed_graph()
    canon = graph.canonical_pairs()
    for root in graph.nodes:
        tree = build_bfs_tree(graph, ledger(graph), root=root)
        up_edges = TreeUpEdges(tree, ledger(graph))
        for v, p in tree.parent.items():
            if p is not None:
                assert up_edges[v] == canon[(v, p)]
    stray = BFSTree(0, {0: None, "c": 0}, {0: 0, "c": 1})
    with pytest.raises(CongestViolationError, match="non-edge"):
        TreeUpEdges(stray, ledger(graph))["c"]


@requires_numpy
def test_numpy_distributed_job_builds_no_per_edge_maps(monkeypatch):
    """On its own graph the numpy ledger charges the all-neighbor round
    by edge id, tree edges resolve one by one, and the record's peak
    edge load comes off the pending array: no map over every edge."""
    def refuse(self):
        raise AssertionError("built a map over every edge")

    monkeypatch.setattr(WeightedGraph, "canonical_pairs", refuse)
    monkeypatch.setattr(WeightedGraph, "all_out_edges", refuse)
    spec = ScenarioSpec(
        name="per-edge-maps", family="gnp", algorithms=("distributed",),
        grid={"n": 1024, "p": 0.008, "k": 3, "component_size": 2},
        backend="numpy", seeds=1,
    )
    record = execute_job(expand_jobs(spec)[0].to_dict())
    assert record["metrics"]["max_edge_messages"] > 0
