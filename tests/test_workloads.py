"""Tests for the workload generators."""

import hashlib
import random
import sys

import networkx as nx
import pytest

from repro.simbackend import numpy_tier_available
from repro.workloads import (
    TERMINAL_PLACEMENTS,
    broom_graph,
    caterpillar_graph,
    clustered_geometric_graph,
    ensure_connected,
    generators,
    grid_graph,
    grid_instance,
    place_terminals,
    powerlaw_graph,
    random_connected_graph,
    random_geometric_graph,
    random_instance,
    random_regular_graph,
    ring_of_blobs,
    smallworld_graph,
    terminals_on_graph,
    torus_graph,
)


class TestGraphGenerators:
    def test_random_connected(self):
        g = random_connected_graph(20, 0.2, random.Random(1))
        assert g.num_nodes == 20
        assert g.is_connected()

    def test_deterministic_given_seed(self):
        a = random_connected_graph(15, 0.3, random.Random(7))
        b = random_connected_graph(15, 0.3, random.Random(7))
        assert a.edge_set() == b.edge_set()
        assert a.total_weight() == b.total_weight()

    def test_geometric(self):
        g = random_geometric_graph(15, 0.5, random.Random(2))
        assert g.is_connected()
        assert all(w >= 1 for _, _, w in g.edges())

    def test_ring_of_blobs_s_scales_with_ring(self):
        rng = random.Random(3)
        small = ring_of_blobs(3, 4, rng)
        rng = random.Random(3)
        large = ring_of_blobs(9, 4, rng)
        assert (
            large.shortest_path_diameter() > small.shortest_path_diameter()
        )

    def test_ring_of_blobs_node_count(self):
        g = ring_of_blobs(4, 5, random.Random(0))
        assert g.num_nodes == 20


class TestNewGraphFamilies:
    def test_powerlaw_has_hubs(self):
        g = powerlaw_graph(40, 2, random.Random(1))
        degrees = sorted(g.degree(v) for v in g.nodes)
        # Preferential attachment: the top node dominates the median.
        assert degrees[-1] >= 3 * degrees[len(degrees) // 2]
        assert g.is_connected()

    def test_smallworld_connected_even_when_rewired(self):
        g = smallworld_graph(24, 4, 0.5, random.Random(2))
        assert g.is_connected()
        assert g.num_nodes == 24

    def test_random_regular_degrees(self):
        g = random_regular_graph(16, 3, random.Random(3))
        assert g.is_connected()
        # ensure_connected may add fallback path edges, never remove any.
        assert all(g.degree(v) >= 3 for v in g.nodes) or g.num_edges >= 24

    def test_torus_is_four_regular(self):
        g = torus_graph(4, 5, random.Random(4))
        assert g.num_nodes == 20
        assert all(g.degree(v) == 4 for v in g.nodes)

    def test_caterpillar_is_tree_with_legs(self):
        g = caterpillar_graph(5, 2, random.Random(5))
        assert g.num_nodes == 15
        assert g.num_edges == g.num_nodes - 1  # a tree
        assert g.is_connected()
        # Leaves: every spine node contributed exactly two.
        leaves = [v for v in g.nodes if g.degree(v) == 1]
        assert len(leaves) >= 10

    def test_broom_star_at_handle_end(self):
        g = broom_graph(6, 4, random.Random(6))
        assert g.num_nodes == 10
        assert g.num_edges == 9  # a tree
        assert g.degree(5) == 5  # handle end: 1 path edge + 4 bristles

    def test_clustered_geometric_connected_with_metric_weights(self):
        g = clustered_geometric_graph(20, 3, random.Random(7))
        assert g.is_connected()
        assert all(w >= 1 for _, _, w in g.edges())

    def test_shortest_path_diameter_regimes_differ(self):
        # The catalog spans regimes: trees have linear s, power-law tiny s.
        rng = random.Random(8)
        tree_s = caterpillar_graph(8, 1, rng).shortest_path_diameter()
        rng = random.Random(8)
        hub_s = powerlaw_graph(16, 3, rng).shortest_path_diameter()
        assert tree_s > hub_s


class TestTerminalPlacements:
    def _graph(self, seed=9):
        return random_connected_graph(20, 0.3, random.Random(seed))

    @pytest.mark.parametrize("placement", sorted(TERMINAL_PLACEMENTS))
    def test_disjoint_components_of_requested_shape(self, placement):
        inst = place_terminals(placement, self._graph(), 3, 2, random.Random(1))
        assert inst.num_components == 3
        assert inst.num_terminals == 6  # disjoint: no node reused

    @pytest.mark.parametrize("placement", sorted(TERMINAL_PLACEMENTS))
    def test_deterministic_given_seed(self, placement):
        g = self._graph()
        a = place_terminals(placement, g, 3, 2, random.Random(2))
        b = place_terminals(placement, g, 3, 2, random.Random(2))
        assert a.labels == b.labels

    @pytest.mark.parametrize("placement", sorted(TERMINAL_PLACEMENTS))
    def test_overfull_request_rejected(self, placement):
        g = random_connected_graph(6, 0.5, random.Random(0))
        with pytest.raises(ValueError, match="distinct terminals"):
            place_terminals(placement, g, 4, 2, random.Random(0))

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown terminal placement"):
            place_terminals("teleport", self._graph(), 2, 2, random.Random(0))

    def test_clustered_members_are_near_their_seed(self):
        g = self._graph()
        inst = place_terminals("clustered", g, 2, 2, random.Random(3))
        dist = g.all_pairs_distances()
        diameter = g.weighted_diameter()
        for component in inst.components.values():
            u, v = sorted(component, key=repr)
            assert dist[u][v] <= diameter  # sanity
        # Intra-component distances are no larger than the far-pairs ones.
        far = place_terminals("far_pairs", g, 2, 2, random.Random(3))
        near_max = max(
            dist[min(c, key=repr)][max(c, key=repr)]
            for c in inst.components.values()
        )
        far_max = max(
            dist[min(c, key=repr)][max(c, key=repr)]
            for c in far.components.values()
        )
        assert near_max <= far_max

    def test_far_pairs_anchor_on_weighted_farthest(self):
        g = self._graph()
        dist = g.all_pairs_distances()
        inst = place_terminals("far_pairs", g, 1, 2, random.Random(4))
        (component,) = inst.components.values()
        u, v = sorted(component, key=repr)
        # The pair realizes the maximum distance from one of its endpoints.
        assert dist[u][v] in (max(dist[u].values()), max(dist[v].values()))

    def test_hub_spoke_touches_the_hub_neighborhood(self):
        g = self._graph()
        hub = max(g.nodes, key=lambda v: (g.degree(v), repr(v)))
        inst = place_terminals("hub_spoke", g, 2, 2, random.Random(5))
        terminals = inst.terminals
        assert hub in terminals  # the hub itself seeds the first component


class TestInstanceGenerators:
    def test_terminals_disjoint(self):
        g = random_connected_graph(20, 0.3, random.Random(5))
        inst = terminals_on_graph(g, 4, 3, random.Random(5))
        assert inst.num_components == 4
        assert inst.num_terminals == 12

    def test_too_many_terminals_rejected(self):
        g = random_connected_graph(6, 0.5, random.Random(0))
        with pytest.raises(ValueError):
            terminals_on_graph(g, 4, 2, random.Random(0))

    def test_overfull_pair_request_names_the_numbers(self):
        # Regression: asking for more disjoint terminal pairs than the
        # graph has nodes for must raise immediately with the arithmetic
        # spelled out — never hang hunting for free nodes or silently
        # reuse one across components.
        g = random_connected_graph(7, 0.5, random.Random(1))
        with pytest.raises(ValueError, match="8 distinct terminals"):
            terminals_on_graph(g, 4, 2, random.Random(1))

    @pytest.mark.parametrize(
        "k,component_size,message",
        [
            (0, 2, "at least one input component"),
            (-1, 2, "at least one input component"),
            (2, 0, "at least one terminal"),
            (2, -3, "at least one terminal"),
        ],
    )
    def test_degenerate_requests_rejected_not_silently_shrunk(
        self, k, component_size, message
    ):
        # Regression: k=0 / component_size=0 used to produce an instance
        # with silently missing (empty) components instead of erroring.
        g = random_connected_graph(8, 0.5, random.Random(2))
        with pytest.raises(ValueError, match=message):
            terminals_on_graph(g, k, component_size, random.Random(2))

    def test_exactly_full_graph_allowed(self):
        g = random_connected_graph(8, 0.5, random.Random(3))
        inst = terminals_on_graph(g, 4, 2, random.Random(3))
        assert inst.num_terminals == 8

    def test_random_instance(self):
        inst = random_instance(18, 3, random.Random(4))
        assert inst.num_components == 3
        assert inst.graph.num_nodes == 18

    def test_grid_instance(self):
        inst = grid_instance(4, 4, 2, random.Random(6))
        assert inst.graph.num_nodes == 16
        assert inst.num_components == 2


def _graph_fingerprint(graph):
    """Byte-exact identity of a graph: nodes in order, weighted edges."""
    return repr((graph.nodes, graph.edges()))


def _instance_fingerprint(inst):
    """Byte-exact identity of an instance: graph, labels, components."""
    labels = sorted(inst.labels.items(), key=repr)
    components = sorted(
        (label, sorted(members, key=repr))
        for label, members in inst.components.items()
    )
    return repr((_graph_fingerprint(inst.graph), labels, components))


class TestSeededReproducibility:
    """Same seed ⇒ byte-identical output, for every graph family."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: random_connected_graph(15, 0.3, rng),
            lambda rng: random_connected_graph(10, 0.0, rng),  # fallback
            lambda rng: random_geometric_graph(15, 0.5, rng),
            lambda rng: random_geometric_graph(12, 0.01, rng),  # fallback
            lambda rng: grid_graph(3, 4, rng),
            lambda rng: ring_of_blobs(3, 4, rng),
            lambda rng: powerlaw_graph(16, 2, rng),
            lambda rng: smallworld_graph(16, 4, 0.3, rng),
            lambda rng: random_regular_graph(14, 3, rng),
            lambda rng: torus_graph(3, 5, rng),
            lambda rng: caterpillar_graph(4, 2, rng),
            lambda rng: broom_graph(5, 3, rng),
            lambda rng: clustered_geometric_graph(16, 3, rng),
        ],
        ids=[
            "gnp", "gnp-compose-fallback",
            "geometric", "geometric-compose-fallback",
            "grid", "ring-of-blobs",
            "powerlaw", "smallworld", "regular", "torus",
            "caterpillar", "broom", "cluster-geo",
        ],
    )
    def test_graph_family_reproducible(self, build):
        a = build(random.Random(42))
        b = build(random.Random(42))
        assert _graph_fingerprint(a) == _graph_fingerprint(b)

    def test_connectivity_fallback_path_taken_and_connected(self):
        # p=0 leaves G(n,p) edgeless, forcing the nx.compose path-graph
        # fallback; the result must still be connected and reproducible.
        g = random_connected_graph(10, 0.0, random.Random(9))
        assert g.is_connected()
        assert g.num_edges == 9  # exactly the fallback path

    def test_geometric_fallback_connected(self):
        g = random_geometric_graph(12, 0.01, random.Random(9))
        assert g.is_connected()

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: random_instance(14, 3, rng),
            lambda rng: random_instance(10, 2, rng, p=0.0),  # fallback
            lambda rng: grid_instance(4, 4, 2, rng),
            lambda rng: terminals_on_graph(
                ring_of_blobs(3, 4, rng), 3, 2, rng
            ),
        ],
        ids=["random", "random-compose-fallback", "grid", "ring"],
    )
    def test_instances_reproducible(self, build):
        a = build(random.Random(1234))
        b = build(random.Random(1234))
        assert _instance_fingerprint(a) == _instance_fingerprint(b)

    def test_different_seeds_differ(self):
        a = random_connected_graph(15, 0.3, random.Random(1))
        b = random_connected_graph(15, 0.3, random.Random(2))
        assert _graph_fingerprint(a) != _graph_fingerprint(b)


#: sha256 of ``repr(random_connected_graph(2048, 0.01, Random(s))
#: .edges())``, weighted edges in order, as networkx's own G(n, p)
#: generator produced them before the bulk draw existed.
GNP_2048_SHA256 = {
    0: "622adec12d1d5a6d3ed80bd3cdfb73f004b02469b98f355e0c47ee70b87266c5",
    1: "9254f487b37b6614763e099b26a3ccb661f9ffafbbd20aebf34f492e662b989f",
}

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(),
    reason="optional numpy extra not installed",
)


def _nx_graph_fingerprint(graph):
    """Nodes, edges and every node's adjacency, all in iteration order."""
    return (
        list(graph.nodes),
        list(graph.edges),
        [list(graph.adj[u]) for u in graph],
    )


class TestBulkGnp:
    """``_gnp`` is networkx's G(n, p), whichever path draws it."""

    @pytest.mark.parametrize("seed", sorted(GNP_2048_SHA256))
    def test_gnp_2048_edges_pinned(self, seed):
        graph = random_connected_graph(2048, 0.01, random.Random(seed))
        digest = hashlib.sha256(repr(graph.edges()).encode()).hexdigest()
        assert digest == GNP_2048_SHA256[seed]

    @requires_numpy
    @pytest.mark.parametrize(
        "n,p,seed",
        [
            pytest.param(n, p, seed, id=f"numpy-n{n}-p{p}-seed{seed}")
            # n >= 256 spans several 2^14-coin chunks, the last partial;
            # n = 363 (65703 coins) also spans more than 2^16.
            for n in (0, 1, 2, 3, 48, 256, 363, 1000)
            for p in (0, 1e-9, 0.01, 0.5, 0.999999, 1, 1.5)
            for seed in (0, 1, 2 ** 30 - 1, 2 ** 32 + 7, 2 ** 64 + 3)
        ],
    )
    def test_bulk_draw_equals_networkx(self, n, p, seed, monkeypatch):
        # Draw in bulk at every n, not only above the size cut-over.
        monkeypatch.setattr(generators, "_GNP_BULK_MIN_PAIRS", 1)
        assert _nx_graph_fingerprint(
            generators._gnp(n, p, seed)
        ) == _nx_graph_fingerprint(nx.gnp_random_graph(n, p, seed=seed))

    @staticmethod
    def _spy_on_networkx(monkeypatch):
        calls = []
        original = nx.gnp_random_graph

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(generators.nx, "gnp_random_graph", spy)
        return calls, original

    def test_without_numpy_falls_back_to_networkx(self, monkeypatch):
        calls, original = self._spy_on_networkx(monkeypatch)
        monkeypatch.setitem(sys.modules, "numpy", None)
        graph = generators._gnp(48, 0.3, 7)
        assert calls == [(48, 0.3)]
        assert _nx_graph_fingerprint(graph) == _nx_graph_fingerprint(
            original(48, 0.3, seed=7)
        )

    @requires_numpy
    def test_numpy_draws_in_bulk_from_the_cut_over(self, monkeypatch):
        calls, _ = self._spy_on_networkx(monkeypatch)
        below = max(
            n for n in range(64)
            if n * (n - 1) // 2 < generators._GNP_BULK_MIN_PAIRS
        )
        generators._gnp(below, 0.3, 7)
        assert calls == [(below, 0.3)]
        generators._gnp(below + 1, 0.3, 7)
        assert calls == [(below, 0.3)]


class TestEnsureConnected:
    def test_connected_graph_untouched(self):
        g = nx.path_graph(4)
        assert ensure_connected(g) is g

    def test_disconnected_graph_gets_path_overlay(self):
        g = nx.empty_graph(6)
        fixed = ensure_connected(g)
        assert nx.is_connected(fixed)
        assert fixed.number_of_edges() == 5  # exactly the fallback path

    def test_overlay_preserves_sampled_edges_and_attributes(self):
        g = nx.Graph()
        g.add_nodes_from(range(5), flavor="sampled")
        g.add_edge(0, 3)
        fixed = ensure_connected(g)
        assert fixed.has_edge(0, 3)
        assert fixed.nodes[0]["flavor"] == "sampled"

    def test_non_integer_labels_rejected_not_silently_disconnected(self):
        g = nx.Graph([("a", "b"), ("c", "d")])
        with pytest.raises(ValueError, match="0..n-1"):
            ensure_connected(g)

    def test_non_contiguous_integer_labels_rejected_no_phantom_nodes(self):
        # Without the label check, path_graph(4) over nodes {0,1,3,4}
        # would inject a phantom node 2 and report "connected".
        g = nx.Graph([(0, 1), (3, 4)])
        with pytest.raises(ValueError, match="0..n-1"):
            ensure_connected(g)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_connected_graph(12, 0.0, random.Random(5)),
            lambda: random_geometric_graph(12, 0.01, random.Random(5)),
        ],
        ids=["gnp", "geometric"],
    )
    def test_fallback_path_edges_always_receive_weights(self, build):
        # p=0 / tiny radius force the path-overlay fallback for (nearly)
        # every edge; each must carry an explicit positive integer weight
        # (never the from_networkx missing-weight default applied blindly).
        g = build()
        assert g.is_connected()
        assert g.num_edges >= 11  # the fallback path is present
        for u, v, w in g.edges():
            assert isinstance(w, int) and w >= 1
