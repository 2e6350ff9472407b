"""Differential oracle for the pipelined filtered upcast (Lemmas 4.13/4.14).

``_reference_upcast`` is the straightforward form of the primitive, kept
here as the oracle: Fraction-keyed items, a ``UnionFind`` Kruskal filter
that re-sorts every buffer every round, and every cut of the finalized
prefix offered to the stop predicate every round. The production
primitive ranks keys once and runs on integers; on random BFS trees it
must return the very same item objects and leave the ledger in the very
same state (rounds, messages, per-edge traffic, phase rounds) on both the
reference and the flatarray ledger.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.congest import CongestRun, build_bfs_tree
from repro.congest.pipeline import MergeItem, pipelined_filtered_upcast
from repro.model import WeightedGraph
from repro.perf import FastCongestRun
from repro.util import UnionFind


def _kruskal_filter(items, base_component):
    uf = UnionFind()
    alive = []
    for item in sorted(items):
        rep_a = base_component.get(item.a, item.a)
        rep_b = base_component.get(item.b, item.b)
        if uf.union(rep_a, rep_b):
            alive.append(item)
    return alive


def _reference_upcast(tree, local_items, base_component, run, stop_predicate=None):
    buffers = {v: [] for v in tree.parent}
    announced = {v: set() for v in tree.parent}
    seen = {v: set() for v in tree.parent}
    for v, items in local_items.items():
        for item in items:
            if item.key not in seen[v]:
                seen[v].add(item.key)
                buffers[v].append(item)

    def get_alive(v):
        return _kruskal_filter(buffers[v], base_component)

    rounds_in_primitive = 0
    while True:
        root_alive = get_alive(tree.root)
        finalized = max(0, rounds_in_primitive - tree.depth)
        prefix = root_alive[: min(finalized, len(root_alive))]
        if stop_predicate is not None:
            for cut in range(1, len(prefix) + 1):
                if stop_predicate(prefix[:cut]):
                    run.charge_rounds(
                        tree.depth, "phase-end stop broadcast (Cor. 4.16)"
                    )
                    return prefix[:cut]

        traffic = {}
        arrivals = []
        for v in tree.parent:
            if v == tree.root:
                continue
            candidate = None
            for item in get_alive(v):
                if item.key not in announced[v]:
                    candidate = item
                    break
            if candidate is None:
                continue
            parent = tree.parent[v]
            announced[v].add(candidate.key)
            traffic[(v, parent)] = 1
            arrivals.append((parent, candidate))

        if not arrivals:
            run.charge_rounds(
                tree.depth, "termination detection (Lemma 4.14)"
            )
            final = get_alive(tree.root)
            if stop_predicate is not None:
                for cut in range(1, len(final) + 1):
                    if stop_predicate(final[:cut]):
                        return final[:cut]
            return final

        rounds_in_primitive += 1
        run.tick(traffic)
        for parent, item in arrivals:
            if item.key not in seen[parent]:
                seen[parent].add(item.key)
                buffers[parent].append(item)


def _random_tree(rng):
    n = rng.randint(2, 40)
    g = nx.gnp_random_graph(n, rng.choice([0.08, 0.2, 0.5]), seed=rng.randrange(1 << 30))
    if not nx.is_connected(g):
        g = nx.compose(g, nx.path_graph(n))
    graph = WeightedGraph.from_networkx(g)
    return graph, build_bfs_tree(graph, CongestRun(graph))


def _random_items(rng, graph, entities, key_values, per_node):
    """Items with keys drawn from a small pool, so equal keys with
    different ends and payloads land at different nodes."""
    items = {}
    for v in graph.nodes:
        count = rng.randint(0, per_node)
        if count:
            items[v] = [
                MergeItem(
                    key=(Fraction(rng.randint(0, key_values), rng.choice([1, 2, 3])),
                         rng.randint(0, 2)),
                    a=rng.choice(entities),
                    b=rng.choice(entities),
                    payload=object(),
                )
                for _ in range(count)
            ]
    return items


def _random_base(rng, entities):
    """A non-trivial fixed forest: some entities grouped, some absent."""
    groups = rng.randint(1, len(entities))
    return {
        e: f"c{rng.randrange(groups)}" for e in entities if rng.random() < 0.7
    }


def _stop_predicate(rng):
    kind = rng.choice(["none", "length", "threshold", "entity"])
    if kind == "none":
        return None
    if kind == "length":
        target = rng.randint(1, 5)
        return lambda prefix: len(prefix) == target
    if kind == "threshold":
        bound = Fraction(rng.randint(0, 8), 2)
        return lambda prefix: prefix[-1].key[0] >= bound
    stop_entity = f"e{rng.randrange(6)}"
    return lambda prefix: stop_entity in (prefix[-1].a, prefix[-1].b)


def _ledger_state(run):
    return (
        run.rounds,
        run.messages,
        sorted(run.edge_messages.items(), key=repr),
        dict(run.phase_rounds),
    )


def _compare(tree, graph, items, base, stop, ledger):
    ref_run, new_run = ledger(graph), ledger(graph)
    for run in (ref_run, new_run):
        run.set_phase("upcast")
    expected = _reference_upcast(tree, items, base, ref_run, stop)
    got = pipelined_filtered_upcast(tree, items, base, new_run, stop)
    assert len(got) == len(expected)
    assert all(g is e for g, e in zip(got, expected))
    assert _ledger_state(new_run) == _ledger_state(ref_run)
    return expected


LEDGERS = [CongestRun, FastCongestRun]


@pytest.mark.parametrize("ledger", LEDGERS, ids=["reference", "flatarray"])
@pytest.mark.parametrize("seed", range(60))
def test_matches_reference_on_random_trees(seed, ledger):
    rng = random.Random(seed)
    graph, tree = _random_tree(rng)
    entities = [f"e{i}" for i in range(rng.randint(2, 8))]
    items = _random_items(
        rng, graph, entities, key_values=rng.choice([2, 6, 40]),
        per_node=rng.choice([1, 3, 6]),
    )
    base = _random_base(rng, entities) if rng.random() < 0.6 else {}
    _compare(tree, graph, items, base, _stop_predicate(rng), ledger)


@pytest.mark.parametrize("ledger", LEDGERS, ids=["reference", "flatarray"])
class TestOracleCases:
    def _grid(self):
        graph = WeightedGraph.from_networkx(nx.grid_2d_graph(4, 5))
        return graph, build_bfs_tree(graph, CongestRun(graph))

    def test_tie_heavy_keys(self, ledger):
        rng = random.Random(1)
        graph, tree = self._grid()
        entities = [f"e{i}" for i in range(6)]
        items = _random_items(rng, graph, entities, key_values=1, per_node=4)
        assert _compare(tree, graph, items, {}, None, ledger)

    def test_first_arrival_of_a_key_wins(self, ledger):
        graph, tree = self._grid()
        key = (Fraction(3, 2), ("'x'", "'y'"))
        leaves = sorted(tree.parent, key=lambda v: -tree.depth_of[v])
        items = {
            leaves[0]: [MergeItem(key, "x", "y", payload="from-deep")],
            leaves[-1]: [MergeItem(key, "y", "x", payload="at-root")],
            leaves[1]: [MergeItem(key, "p", "q", payload="other-ends")],
        }
        accepted = _compare(tree, graph, items, {}, None, ledger)
        assert [m.payload for m in accepted] == ["at-root"]

    def test_first_arrival_wins_below_the_root(self, ledger):
        graph, tree = self._grid()
        key = (Fraction(1),)
        deep = max(tree.parent, key=lambda v: (tree.depth_of[v], repr(v)))
        chain = tree.path_to_root(deep)
        items = {
            chain[0]: [MergeItem(key, "x", "y", payload="deep")],
            chain[1]: [MergeItem(key, "x", "x", payload="internal")],
        }
        assert _compare(tree, graph, items, {}, None, ledger) == []

    def test_non_trivial_base_component(self, ledger):
        graph, tree = self._grid()
        nodes = list(graph.nodes)
        items = {
            nodes[3]: [MergeItem((1,), "a", "b"), MergeItem((2,), "c", "d")],
            nodes[7]: [MergeItem((3,), "b", "d"), MergeItem((4,), "a", "e")],
            nodes[12]: [MergeItem((5,), "c", "e")],
        }
        base = {"a": "A", "c": "A", "b": "B"}
        accepted = _compare(tree, graph, items, base, None, ledger)
        assert [m.key for m in accepted] == [(1,), (2,), (4,)]

    def test_items_internal_to_one_component(self, ledger):
        graph, tree = self._grid()
        nodes = list(graph.nodes)
        items = {
            nodes[0]: [MergeItem((1,), "a", "b")],
            nodes[5]: [MergeItem((2,), "a", "a"), MergeItem((3,), "b", "c")],
        }
        accepted = _compare(tree, graph, items, {"a": "A", "b": "A"}, None, ledger)
        assert [m.key for m in accepted] == [(3,)]

    def test_stop_predicate_fires_mid_stream(self, ledger):
        graph, tree = self._grid()
        items = {
            v: [MergeItem((Fraction(i, 2),), f"e{i}", f"e{i + 1}")]
            for i, v in enumerate(graph.nodes)
        }
        accepted = _compare(
            tree, graph, items, {}, lambda prefix: prefix[-1].key[0] >= 3, ledger
        )
        assert [m.key[0] for m in accepted] == [Fraction(i, 2) for i in range(7)]
