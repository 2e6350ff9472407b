"""The solvers' narrow oracle reads against the full-read references.

Moat growing reads terminal distance rows only, the embedding reads each
level ancestor off the node's LE list, and Bellman–Ford relaxes the
reduced weights Ŵ as ints on the grid 1/scale. The references below are the
straightforward versions they replaced: an event search over the
all-pairs distances, a scan of every node per (node, level) pair against
a ``Fraction`` radius, the embedding's path load and level-sweep rounds
over the reference Dijkstra's paths (from searches, and from the numpy
key matrix with ids containing ``numpy``), and a Bellman–Ford that
relaxes Ŵ/scale in ``Fraction`` arithmetic (on every ledger, the numpy
one with ids containing ``numpy``).
Each must agree exactly, including dict order and value types, on
tie-heavy graphs (unit-weight torus and ring, equal-weight gnp) with int,
str and mixed-type nodes. The moat events are checked for Algorithm 1 and
for Algorithm 2 at several ε, also with weights up to 2^20, so the int
radius grid of ``repro.core.moat`` is exercised deep.
"""

import math
import random
from fractions import Fraction
from functools import partial

import networkx as nx
import pytest

from repro.baselines.spanner import spanner_steiner_forest
from repro.congest import CongestRun
from repro.congest.bellman_ford import bellman_ford
from repro.core.moat import _MoatSystem, moat_growing
from repro.core.rounded import rounded_moat_growing
from repro.model import graph as graph_module
from repro.model.graph import WeightedGraph
from repro.model.instance import instance_from_components
from repro.perf import make_ledger_run
from repro.simbackend import numpy_tier_available
from repro.randomized.embedding import build_embedding
from repro.workloads.placements import TERMINAL_PLACEMENTS
from tests.test_graph_oracle import reference_dijkstra, reference_path

KINDS = ["int", "str", "mixed"]


def _name(i, kind):
    if kind == "int":
        return i
    if kind == "str":
        return f"v{i}"
    return i if i % 2 else f"v{i}"


def tie_graph(family, kind, seed=0):
    """A tie-heavy connected graph: every edge has the same weight."""
    if family == "torus":
        g = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(4, 5, periodic=True)
        )
    elif family == "ring":
        g = nx.cycle_graph(14)
    else:
        g = nx.gnp_random_graph(16, 0.3, seed=seed)
        g = nx.compose(g, nx.path_graph(16))
    weight = 3 if family == "gnp" else 1
    return WeightedGraph(
        [_name(i, kind) for i in g.nodes],
        [(_name(u, kind), _name(v, kind), weight) for u, v in g.edges],
    )


GRAPHS = [(family, kind) for family in ("torus", "ring", "gnp") for kind in KINDS]


def _tie_instance(graph, seed):
    nodes = list(graph.nodes)
    random.Random(seed).shuffle(nodes)
    return instance_from_components(graph, [nodes[0:3], nodes[3:5], nodes[5:7]])


# ---------------------------------------------------------------------
# Moat events against the all-pairs event search
# ---------------------------------------------------------------------


def reference_next_event(system, apd):
    """The minimal (µ, v, w), read from the all-pairs distances."""
    best = None
    for i, v in enumerate(system.terminals):
        for w in system.terminals[i + 1:]:
            rv, rw = system.rep(v), system.rep(w)
            if rv == rw:
                continue
            act_v, act_w = system.active[rv], system.active[rw]
            if not act_v and not act_w:
                continue
            gap = Fraction(apd[v][w]) - system.rad[v] - system.rad[w]
            mu = gap / 2 if act_v and act_w else gap
            a, b = (v, w) if act_v else (w, v)
            key = (mu, repr(a), repr(b), a, b)
            if best is None or key[:3] < best[:3]:
                best = key
    if best is None:
        return None
    return best[0], best[3], best[4]


def _events(result):
    return [(e.mu, e.v, e.w, e.path) for e in result.events]


def _assert_matches_reference(monkeypatch, solve, build):
    """``solve(build())`` gives the same events, radii and solution with
    ``next_event`` replaced by the reference."""
    got = solve(build())
    with monkeypatch.context() as patch:
        patch.setattr(
            _MoatSystem,
            "next_event",
            lambda self: reference_next_event(
                self, self.graph.all_pairs_distances()
            ),
        )
        # A fresh graph, so the reference shares no cached row with the run.
        want = solve(build())
    assert _events(got) == _events(want)
    assert list(got.radii.items()) == list(want.radii.items())
    assert got.solution.edges == want.solution.edges


@pytest.mark.parametrize("solve", [moat_growing, rounded_moat_growing])
@pytest.mark.parametrize("family,kind", GRAPHS)
@pytest.mark.parametrize("seed", range(3))
def test_moat_events_match_all_pairs_reference(
    monkeypatch, solve, family, kind, seed
):
    _assert_matches_reference(
        monkeypatch, solve, lambda: _tie_instance(tie_graph(family, kind, seed), seed)
    )


#: ε as job records spell it (str), as a float, as an exact Fraction with
#: an odd denominator, and above 1: each puts other denominators on the
#: radius grid.
EPSILONS = ["1/10", 0.1, Fraction(1, 3), 2]


@pytest.mark.parametrize("epsilon", EPSILONS, ids=str)
@pytest.mark.parametrize("family,kind", GRAPHS)
@pytest.mark.parametrize("seed", range(2))
def test_rounded_events_match_all_pairs_reference(
    monkeypatch, epsilon, family, kind, seed
):
    _assert_matches_reference(
        monkeypatch,
        partial(rounded_moat_growing, epsilon=epsilon),
        lambda: _tie_instance(tie_graph(family, kind, seed), seed),
    )


def deep_graph(family, kind, seed):
    """``tie_graph``'s topology with random weights up to 2^20: long runs
    of growth phases and odd keys make deep grids."""
    graph = tie_graph(family, kind, seed)
    rng = random.Random(seed)
    return WeightedGraph(
        list(graph.nodes),
        [(u, v, rng.randint(1, 1 << 20)) for u, v, _ in graph.edges()],
    )


DEEP_EPSILONS = ["1/10", Fraction(1, 3), 2]  # 0.1 is 1/10 again


@pytest.mark.parametrize(
    "solve",
    [moat_growing]
    + [partial(rounded_moat_growing, epsilon=eps) for eps in DEEP_EPSILONS],
    ids=["moat"] + [f"rounded-{eps}" for eps in DEEP_EPSILONS],
)
@pytest.mark.parametrize("family", ["torus", "ring", "gnp"])
def test_deep_grid_events_match_all_pairs_reference(monkeypatch, solve, family):
    _assert_matches_reference(
        monkeypatch, solve, lambda: _tie_instance(deep_graph(family, "mixed", 0), 0)
    )


# ---------------------------------------------------------------------
# Embedding ancestors against the scan of every node
# ---------------------------------------------------------------------


def reference_ancestors(graph, rank, beta, levels, s_nodes):
    """(ancestors, truncation level) by scanning every node per level."""
    apd = graph.all_pairs_distances()
    nodes = list(graph.nodes)
    ancestors, truncation = {}, {}
    for v in nodes:
        chain, cutoff = [], levels
        for i in range(levels):
            radius = beta * (1 << i)
            candidates = [u for u in nodes if apd[v][u] <= radius]
            best = max(candidates, key=lambda u: rank[u])
            if s_nodes and best in s_nodes:
                cutoff = i
                break
            chain.append(best)
        ancestors[v] = chain
        truncation[v] = cutoff
    return ancestors, truncation


class _FixedBeta(random.Random):
    """Draws β from one fixed offset (shuffle does not use randrange)."""

    def __init__(self, seed, offset):
        super().__init__(seed)
        self.offset = offset

    def randrange(self, *args):
        return self.offset


def reference_path_measure(graph, ancestors, nearest_s):
    """(max hops, max distinct paths through one node) over the paths
    from every node to each of its ancestors and its S node, taken from
    the reference Dijkstra."""
    max_hops, load = 0, {v: set() for v in graph.nodes}
    for v, chain in ancestors.items():
        _, parent = reference_dijkstra(graph, v)
        for u in (set(chain) | {nearest_s[v]}) - {None, v}:
            path = reference_path(parent, v, u)
            max_hops = max(max_hops, len(path) - 1)
            for x in path:
                load[x].add((v, u))
    return max_hops, max(len(paths) for paths in load.values())


def _charged_sweeps(run):
    """The rounds each ``charge_rounds`` call for the LE-list level
    sweeps adds to ``run``."""
    charged = []
    charge = run.charge_rounds

    def recording(rounds, reason=""):
        if reason.startswith("LE-list level sweeps"):
            charged.append(rounds)
        charge(rounds, reason)

    run.charge_rounds = recording
    return charged


@pytest.fixture(params=["search", "numpy-key-matrix"])
def oracle(request, monkeypatch):
    """The graph oracle's source of rows and paths: Python searches, or
    (n ≥ 2, numpy installed) the Floyd–Warshall key matrix."""
    if request.param != "search":
        pytest.importorskip("numpy")
        monkeypatch.setattr(graph_module, "_FILL_MIN_N", 1)
    return request.param


@pytest.mark.parametrize("family,kind", GRAPHS)
@pytest.mark.parametrize("truncated", [False, True])
@pytest.mark.parametrize("beta_offset", [None, 0, (1 << 15), (1 << 16) - 1])
def test_embedding_matches_scan_reference(
    oracle, family, kind, truncated, beta_offset
):
    for seed in range(3):
        graph = tie_graph(family, kind, seed)
        rng = (
            random.Random(seed) if beta_offset is None
            else _FixedBeta(seed, beta_offset)
        )
        truncate_at = math.isqrt(graph.num_nodes) if truncated else None
        run = CongestRun(graph)
        charged = _charged_sweeps(run)
        emb = build_embedding(graph, run, rng, truncate_at)
        assert (graph._keys is not None) == (oracle != "search")
        hops, max_paths = reference_path_measure(
            graph, emb.ancestors, emb.nearest_s
        )
        assert emb.max_paths_per_node == max_paths
        assert charged == [emb.levels * max(1, hops)]
        ancestors, truncation = reference_ancestors(
            graph, emb.rank, emb.beta, emb.levels, emb.s_nodes
        )
        assert emb.ancestors == ancestors
        assert emb.truncation_level == truncation


# ---------------------------------------------------------------------
# Bellman–Ford against Fraction arithmetic
# ---------------------------------------------------------------------


def reference_bellman_ford(
    graph, sources, run, leftover=None, scale=1, blocked=None,
    max_iterations=None,
):
    """(dist, tag, parent, iterations, stabilized), relaxing Ŵ/scale in
    Fractions: max(0, W − min(W, l(x)/scale) − min(W, l(y)/scale))."""
    blocked = blocked or frozenset()
    leftover = leftover or {}

    def edge_weight(x, y):
        w = Fraction(graph.weight(x, y))
        lx = Fraction(leftover.get(x, 0), scale)
        ly = Fraction(leftover.get(y, 0), scale)
        return max(Fraction(0), w - min(w, lx) - min(w, ly))

    dist, tag, parent = {}, {}, {}
    for v, (d0, source_tag) in sources.items():
        dist[v] = Fraction(d0, scale)
        tag[v] = source_tag
        parent[v] = None
    immutable = frozenset(sources)
    changed = set(sources)
    iterations = 0
    while changed:
        if max_iterations is not None and iterations >= max_iterations:
            return dist, tag, parent, iterations, False
        iterations += 1
        announcers = sorted(changed, key=repr)
        updates = {}
        for u in announcers:
            for v in graph.neighbors(u):
                if v in blocked or v in immutable:
                    continue
                cand = (dist[u] + edge_weight(u, v), repr(tag[u]), repr(u))
                if v not in updates or cand < updates[v][:3]:
                    updates[v] = cand + (tag[u], u)
        run.tick_neighbors(graph, announcers)
        changed = set()
        for v, (d, tag_repr, _, new_tag, new_parent) in updates.items():
            if v in dist and (d, tag_repr) >= (dist[v], repr(tag[v])):
                continue
            dist[v], tag[v], parent[v] = d, new_tag, new_parent
            changed.add(v)
    return dist, tag, parent, iterations, True


def _ledger(run):
    return (
        run.rounds,
        run.messages,
        sorted(run.edge_messages.items(), key=repr),
        dict(run.phase_rounds),
    )


LEDGERS = [
    "reference",
    "flatarray",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_tier_available(),
        reason="optional numpy extra not installed",
    )),
]

#: The Ŵ cases: case id → (scale, whether nodes hold leftovers, int
#: starts on the grid 1/scale). Every other node (in repr order) holds
#: a leftover 1, 3·scale or 0 in turn, so some edges are covered partly
#: and some fully (Ŵ = 0); the rest keep W·scale.
REDUCED_CASES = {
    "plain": (1, False, (0, 0, 0)),
    "starts": (1, False, (1, 5, 0)),
    "reduced-s1": (1, True, (0, 0, 0)),
    "reduced-s2": (2, True, (1, 5, 0)),
    "reduced-s4": (4, True, (3, 0, 0)),
}


def _reduced_case(graph, case):
    scale, covered, starts = REDUCED_CASES[case]
    nodes = list(graph.nodes)
    leftover = None
    if covered:
        cycle = (1, 3 * scale, 0)
        leftover = {v: cycle[i % 3] for i, v in enumerate(nodes[::2])}
    picks = [nodes[0], nodes[len(nodes) // 2], nodes[-1]]
    sources = {
        v: (d0, tag) for v, d0, tag in zip(picks, starts, ["b", "a", "b"])
    }
    return scale, leftover, sources


@pytest.mark.parametrize("ledger", LEDGERS)
@pytest.mark.parametrize("family,kind", GRAPHS)
@pytest.mark.parametrize("case", sorted(REDUCED_CASES))
@pytest.mark.parametrize("max_iterations", [None, 0, 2])
def test_bellman_ford_matches_fraction_reference(
    ledger, family, kind, case, max_iterations
):
    graph = tie_graph(family, kind)
    scale, leftover, sources = _reduced_case(graph, case)
    if leftover is not None:
        # Some edge is fully covered, and some partly where W·scale > 1
        # leaves room (every edge of a tie graph weighs the same).
        ws = graph.edges()[0][2] * scale
        reduced = {
            max(0, ws - min(ws, leftover.get(u, 0))
                - min(ws, leftover.get(v, 0)))
            for u, v, _ in graph.edges()
        }
        assert 0 in reduced
        assert ws == 1 or any(0 < r < ws for r in reduced)
    kwargs = {
        "leftover": leftover,
        "scale": scale,
        "blocked": {list(graph.nodes)[3]},
        "max_iterations": max_iterations,
    }
    ref_run, run = (make_ledger_run(ledger, graph) for _ in range(2))
    dist, tag, parent, iterations, stabilized = reference_bellman_ford(
        graph, sources, ref_run, **kwargs
    )
    got = bellman_ford(graph, sources, run, **kwargs)
    assert all(type(d) is int for d in got.dist.values())
    assert [(v, Fraction(d, scale)) for v, d in got.dist.items()] == list(
        dist.items()
    )
    assert list(got.tag.items()) == list(tag.items())
    assert list(got.parent.items()) == list(parent.items())
    assert (got.iterations, got.stabilized) == (iterations, stabilized)
    assert _ledger(run) == _ledger(ref_run)


@pytest.mark.parametrize("ledger", LEDGERS)
@pytest.mark.parametrize("start", [Fraction(1, 2), Fraction(0), 0.0, "0"])
def test_bellman_ford_rejects_non_int_starts(ledger, start):
    graph = tie_graph("ring", "str")
    run = make_ledger_run(ledger, graph)
    sources = {"v0": (0, "a"), "v7": (start, "b")}
    with pytest.raises(TypeError, match="'v7'"):
        bellman_ford(graph, sources, run)
    assert run.rounds == 0 and run.messages == 0


# ---------------------------------------------------------------------
# Row counts: the solvers pay one shortest-path tree per terminal
# ---------------------------------------------------------------------


@pytest.fixture
def computed_trees(monkeypatch):
    """(graph, source) of every shortest-path tree the oracle computes."""
    trees = []
    original = WeightedGraph._sssp

    def counting(self, source):
        if source not in self._sssp_cache:
            trees.append((self, source))
        return original(self, source)

    monkeypatch.setattr(WeightedGraph, "_sssp", counting)
    return trees


def _n64_instance():
    g = nx.gnp_random_graph(64, 0.08, seed=7)
    g = nx.compose(g, nx.path_graph(64))
    rng = random.Random(7)
    graph = WeightedGraph(
        g.nodes, [(u, v, rng.randint(1, 9)) for u, v in g.edges]
    )
    return _tie_instance(graph, 7)


@pytest.mark.parametrize(
    "solve", [moat_growing, rounded_moat_growing, spanner_steiner_forest]
)
def test_solvers_compute_one_tree_per_terminal(computed_trees, solve):
    instance = _n64_instance()
    solve(instance)
    sources = [s for g, s in computed_trees if g is instance.graph]
    assert sorted(sources, key=repr) == sorted(instance.terminals, key=repr)


@pytest.mark.parametrize("placement", ["clustered", "far_pairs", "hub_spoke"])
def test_placements_compute_one_tree_per_component(computed_trees, placement):
    graph = _n64_instance().graph
    TERMINAL_PLACEMENTS[placement].place(graph, 3, 2, random.Random(1))
    assert len(computed_trees) == (1 if placement == "hub_spoke" else 3)
