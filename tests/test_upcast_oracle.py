"""Differential oracle for the tree upcast and the owner-exchange charge.

``_reference_upcast_items`` is the straightforward form of
:func:`repro.congest.broadcast.upcast_items`, kept here as the oracle:
every round it scans every node's buffer from the start and charges the
round through :meth:`CongestRun.tick` with directed pairs. The production
primitive visits only the nodes with work left, resumes each buffer scan
where it stopped and charges pre-resolved tree edges; on random BFS trees
it must return the very same items in the very same order and leave the
ledger in the very same state (rounds, messages, per-edge traffic, phase
rounds) on the reference, flatarray and numpy ledgers.
"""

import random
from bisect import insort

import networkx as nx
import pytest

from repro.congest import CongestRun, build_bfs_tree, upcast_items
from repro.model import WeightedGraph
from tests.test_pipeline_oracle import LEDGERS, _ledger_state, _random_tree


def _reference_upcast_items(tree, local_items, run, key=None):
    if key is None:
        key = lambda item: item  # noqa: E731 - identity key
    buffers = {v: [] for v in tree.parent}
    seen = {v: set() for v in tree.parent}
    forwarded = {v: set() for v in tree.parent}
    sequence = 0
    for v, items in local_items.items():
        for item in items:
            k = key(item)
            if k not in seen[v]:
                seen[v].add(k)
                insort(buffers[v], (repr(item), sequence, item))
                sequence += 1
    while True:
        traffic = {}
        arrivals = []
        for v in tree.parent:
            if v == tree.root:
                continue
            for item_repr, _, item in buffers[v]:
                if key(item) not in forwarded[v]:
                    break
            else:
                continue
            parent = tree.parent[v]
            forwarded[v].add(key(item))
            traffic[(v, parent)] = 1
            arrivals.append((parent, item_repr, item))
        if not traffic:
            break
        run.tick(traffic)
        for parent, item_repr, item in arrivals:
            k = key(item)
            if k not in seen[parent]:
                seen[parent].add(k)
                insort(buffers[parent], (item_repr, sequence, item))
                sequence += 1
    return [item for _, _, item in buffers[tree.root]]


class _Tagged:
    """An item whose repr is its label alone, so distinct items tie on
    repr and the arrival sequence must order them."""

    def __init__(self, label, payload):
        self.label = label
        self.payload = payload

    def __repr__(self):
        return self.label


def _random_items(rng, graph, kind):
    """Items drawn from a small pool, so duplicates meet on the way up."""
    pool = rng.choice([3, 10, 60])
    items = {}
    for v in graph.nodes:
        count = rng.randint(0, rng.choice([1, 4]))
        if not count:
            continue
        if kind == "ints":
            items[v] = [rng.randrange(pool) for _ in range(count)]
        elif kind == "pairs":
            items[v] = [
                (f"t{rng.randrange(pool)}", rng.randrange(3))
                for _ in range(count)
            ]
        else:
            items[v] = [
                _Tagged(f"t{rng.randrange(pool)}", rng.randrange(3))
                for _ in range(count)
            ]
    return items


KEYS = {
    "ints": None,
    "pairs": lambda item: item[0],
    "tagged": lambda item: (item.label, item.payload),
}


def _compare(tree, graph, items, ledger, key=None):
    ref_run, new_run = ledger(graph), ledger(graph)
    for run in (ref_run, new_run):
        run.set_phase("upcast")
    expected = _reference_upcast_items(tree, items, ref_run, key)
    got = upcast_items(tree, items, new_run, key)
    assert len(got) == len(expected)
    assert all(g is e for g, e in zip(got, expected))
    assert _ledger_state(new_run) == _ledger_state(ref_run)
    return expected


@pytest.mark.parametrize("ledger", LEDGERS)
@pytest.mark.parametrize("kind", sorted(KEYS))
@pytest.mark.parametrize("seed", range(25))
def test_matches_reference_on_random_trees(seed, kind, ledger):
    rng = random.Random(seed)
    graph, tree = _random_tree(rng)
    _compare(tree, graph, _random_items(rng, graph, kind), ledger, KEYS[kind])


@pytest.mark.parametrize("ledger", LEDGERS)
class TestUpcastCases:
    def _grid(self):
        graph = WeightedGraph.from_networkx(nx.grid_2d_graph(4, 5))
        return graph, build_bfs_tree(graph, CongestRun(graph))

    def test_empty_input(self, ledger):
        graph, tree = self._grid()
        assert _compare(tree, graph, {}, ledger) == []
        assert _compare(tree, graph, {v: [] for v in graph.nodes}, ledger) == []

    def test_root_only_input(self, ledger):
        graph, tree = self._grid()
        items = {tree.root: [3, 1, 3, 2]}
        assert _compare(tree, graph, items, ledger) == [1, 2, 3]

    def test_every_node_holds_the_same_item(self, ledger):
        graph, tree = self._grid()
        assert _compare(tree, graph, {v: ["x"] for v in graph.nodes}, ledger) == ["x"]

    def test_custom_key_keeps_the_first_arrival(self, ledger):
        graph, tree = self._grid()
        deep = max(tree.parent, key=lambda v: (tree.depth_of[v], repr(v)))
        items = {v: [("k", repr(v))] for v in tree.path_to_root(deep)}
        got = _compare(tree, graph, items, ledger, key=lambda item: item[0])
        assert got == [("k", repr(tree.root))]

    def test_repr_ties_follow_the_arrival_sequence(self, ledger):
        graph, tree = self._grid()
        items = {
            v: [_Tagged("same", i), _Tagged("same", -i)]
            for i, v in enumerate(graph.nodes)
        }
        _compare(
            tree, graph, items, ledger, key=lambda item: item.payload
        )
