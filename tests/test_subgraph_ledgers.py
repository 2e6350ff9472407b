"""Primitives run on a subgraph of the ledger's graph, on every tier.

The randomized algorithm's reduction step (Lemma G.12) runs Bellman–Ford
over the F-subgraph while charging the ledger of the whole network. The
primitives must take their topology from the graph they are handed, not
from the ledger's graph, and every tier must charge exactly what the
reference charges; traffic over a pair that is no edge of the ledger's
graph is still a CONGEST violation.
"""

import random

import pytest

from repro.congest.bellman_ford import bellman_ford
from repro.congest.bfs import build_bfs_tree
from repro.congest.run import CongestRun
from repro.engine.registry import GRAPH_FAMILIES
from repro.exceptions import CongestViolationError
from repro.model.graph import WeightedGraph
from repro.perf import make_ledger_run
from repro.randomized.algorithm import randomized_steiner_forest
from repro.simbackend import numpy_tier_available
from repro.workloads import random_instance

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(), reason="optional numpy extra not installed"
)

#: Every tier, plus ``auto`` at its default thresholds (``reference`` at
#: n = 48) and forced onto ``flatarray`` and ``numpy``.
TIERS = [
    "reference",
    "flatarray",
    pytest.param("numpy", marks=requires_numpy),
    "auto",
    pytest.param(
        {"name": "auto", "params": {"threshold": 1}}, id="auto-flatarray"
    ),
    pytest.param(
        {"name": "auto", "params": {"threshold": 1, "numpy_threshold": 1}},
        id="auto-numpy",
        marks=requires_numpy,
    ),
]


def _graphs():
    """G(48, 0.1) and its subgraph of every third edge at weight 1 (not
    connected: BFS from the default root reaches 34 of 48 nodes)."""
    graph = GRAPH_FAMILIES["gnp"].build(random.Random(0), n=48, p=0.1)
    subgraph = WeightedGraph(
        graph.nodes,
        [(u, v, 1) for i, (u, v, _) in enumerate(graph.edges()) if i % 3 == 0],
        validate=False,
    )
    return graph, subgraph


def _ledger(run):
    return (
        run.rounds,
        run.messages,
        sorted(run.edge_messages.items(), key=repr),
    )


@pytest.mark.parametrize("tier", TIERS)
def test_bfs_on_subgraph_matches_reference(tier):
    graph, subgraph = _graphs()
    expected_run = CongestRun(graph)
    expected = build_bfs_tree(subgraph, expected_run)
    assert len(expected.parent) == 34
    run = make_ledger_run(tier, graph)
    tree = build_bfs_tree(subgraph, run)
    assert list(tree.parent.items()) == list(expected.parent.items())
    assert tree.depth_of == expected.depth_of
    assert _ledger(run) == _ledger(expected_run)


@pytest.mark.parametrize("tier", TIERS)
def test_bellman_ford_on_subgraph_matches_reference(tier):
    graph, subgraph = _graphs()
    sources = {v: (0, v) for v in subgraph.nodes[::12]}
    expected_run = CongestRun(graph)
    expected = bellman_ford(subgraph, sources, expected_run)
    run = make_ledger_run(tier, graph)
    result = bellman_ford(subgraph, sources, run)
    for field in ("dist", "tag", "parent"):
        assert list(getattr(result, field).items()) == list(
            getattr(expected, field).items()
        )
    assert result.iterations == expected.iterations
    assert _ledger(run) == _ledger(expected_run)


@pytest.mark.parametrize("tier", TIERS)
def test_traffic_off_the_ledger_graph_is_rejected(tier):
    graph, _ = _graphs()
    u, v = next(
        (u, v) for u in graph.nodes for v in graph.nodes
        if u != v and not graph.has_edge(u, v)
    )
    foreign = WeightedGraph([u, v], [(u, v, 1)])
    run = make_ledger_run(tier, graph)
    with pytest.raises(CongestViolationError, match="non-edge"):
        build_bfs_tree(foreign, run, root=u)
    with pytest.raises(CongestViolationError, match="non-edge"):
        bellman_ford(foreign, {u: (0, u)}, make_ledger_run(tier, graph))


@pytest.mark.parametrize("tier", TIERS)
def test_randomized_matches_reference(tier):
    for seed in range(20):
        instance = random_instance(48, 3, random.Random(seed), p=0.1)
        expected = randomized_steiner_forest(instance, rng=random.Random(seed))
        result = randomized_steiner_forest(
            instance,
            rng=random.Random(seed),
            run=make_ledger_run(tier, instance.graph),
        )
        assert (
            result.solution.weight,
            sorted(result.solution.edges, key=repr),
            _ledger(result.run),
        ) == (
            expected.solution.weight,
            sorted(expected.solution.edges, key=repr),
            _ledger(expected.run),
        ), f"seed {seed}"
