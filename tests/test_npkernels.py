"""Property suite for the vectorized numpy kernels (repro.perf.npkernels).

Every kernel must equal its pure-python counterpart *exactly* — same
results (including dict insertion order), same rounds, messages, and
per-edge ledger traffic — on random CSR topologies and weights,
including the adversarial shapes the vectorization is most likely to
get wrong: isolated nodes, duplicate edge weights near the int64
scaling bounds, single-node graphs, and path graphs. The whole file
skips cleanly when the optional numpy extra is not installed.
"""

import random
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.congest.bellman_ford import bellman_ford  # noqa: E402
from repro.congest.bfs import build_bfs_tree  # noqa: E402
from repro.congest.broadcast import (  # noqa: E402
    broadcast_items,
    convergecast_aggregate,
)
from repro.congest.run import CongestRun  # noqa: E402
from repro.model.graph import WeightedGraph  # noqa: E402
from repro.perf import make_ledger_run  # noqa: E402
from repro.perf.fastpath import FastCongestRun  # noqa: E402
from repro.perf.npkernels import (  # noqa: E402
    INT64_LIMIT,
    NumpyCongestRun,
    NumpyTopology,
    apply_radius_growth,
    assert_int64_bounds,
    gather_out_edges,
    grow_radii,
    scale_fractions,
)

# ---------------------------------------------------------------------
# Graph strategies
# ---------------------------------------------------------------------

#: Weight pools: small ints with forced duplicates, and duplicates near
#: the int64 scaling bound (2^61 < 2^62 — topology compiles, but the
#: Bellman–Ford bound check must decline and fall back).
WEIGHT_POOLS = {
    "small": [1, 2, 2, 3, 7],
    "duplicate-large": [2 ** 61 - 1, 2 ** 61 - 1, 2 ** 60],
}


def _build_graph(shape, n, seed, pool_key):
    rng = random.Random(seed)
    pool = WEIGHT_POOLS[pool_key]
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = {}

    def add(i, j):
        key = (min(i, j), max(i, j))
        if key not in edges:
            edges[key] = rng.choice(pool)

    if shape == "path":
        for i in range(n - 1):
            add(i, i + 1)
    elif shape == "isolated":
        # A connected core on the first n-2 nodes; the last two nodes
        # stay isolated (validate=False skips the connectivity check).
        core = max(1, n - 2)
        for i in range(1, core):
            add(i, rng.randrange(i))
    else:  # random connected: spanning tree + extra chords
        for i in range(1, n):
            add(i, rng.randrange(i))
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            add(i, j)
    return WeightedGraph(
        nodes,
        [(nodes[i], nodes[j], w) for (i, j), w in edges.items()],
        validate=False,
    )


@st.composite
def graphs(draw):
    shape = draw(st.sampled_from(["random", "path", "isolated"]))
    n = draw(st.integers(3, 20))
    seed = draw(st.integers(0, 10 ** 6))
    pool_key = draw(st.sampled_from(sorted(WEIGHT_POOLS)))
    return _build_graph(shape, n, seed, pool_key)


def _ledger_fp(run):
    return (
        run.rounds,
        run.messages,
        sorted(run.edge_messages.items(), key=repr),
        dict(run.phase_rounds),
    )


# ---------------------------------------------------------------------
# Primitive equality properties
# ---------------------------------------------------------------------


class TestPrimitiveEquality:
    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_bfs_matches_reference(self, graph):
        ref_run = CongestRun(graph)
        ref = build_bfs_tree(graph, run=ref_run)
        np_run = NumpyCongestRun(graph)
        fast = build_bfs_tree(graph, run=np_run)
        assert list(ref.parent.items()) == list(fast.parent.items())
        assert list(ref.depth_of.items()) == list(fast.depth_of.items())
        assert ref.root == fast.root and ref.depth == fast.depth
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    @given(
        graphs(),
        st.integers(1, 3),
        st.sampled_from([None, 1, 3]),
        st.booleans(),
        st.integers(0, 10 ** 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_bellman_ford_matches_reference(
        self, graph, num_sources, max_iterations, use_blocked, seed
    ):
        rng = random.Random(seed)
        nodes = list(graph.nodes)
        picks = rng.sample(nodes, min(num_sources, len(nodes)))
        tags = ["A", "B", "A"]
        dists = [Fraction(0), Fraction(1, 2), Fraction(5, 3)]
        sources = {
            v: (dists[i % 3], tags[i % 3]) for i, v in enumerate(picks)
        }
        blocked = None
        if use_blocked:
            rest = [v for v in nodes if v not in sources]
            if rest:
                blocked = frozenset(rng.sample(rest, 1))
        ref_run = CongestRun(graph)
        ref = bellman_ford(
            graph, sources, ref_run,
            blocked=blocked, max_iterations=max_iterations,
        )
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(
            graph, sources, np_run,
            blocked=blocked, max_iterations=max_iterations,
        )
        assert list(ref.dist.items()) == list(fast.dist.items())
        assert list(ref.tag.items()) == list(fast.tag.items())
        assert list(ref.parent.items()) == list(fast.parent.items())
        assert ref.iterations == fast.iterations
        assert ref.stabilized == fast.stabilized
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    @given(graphs(), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_and_convergecast_match_reference(
        self, graph, num_items
    ):
        items = [("item", i) for i in range(num_items)]
        ref_run = CongestRun(graph)
        ref_tree = build_bfs_tree(graph, run=ref_run)
        ref_out = broadcast_items(ref_tree, items, ref_run)
        np_run = NumpyCongestRun(graph)
        np_tree = build_bfs_tree(graph, run=np_run)
        np_out = broadcast_items(np_tree, items, np_run)
        assert ref_out == np_out
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)
        # Convergecast with a *non-commutative* combine: nested tuples
        # record the exact combine order, so any schedule divergence
        # fails loudly, not just aggregate-value differences.
        values = {v: i for i, v in enumerate(graph.nodes)}
        combine = lambda a, b: (a, b)  # noqa: E731
        ref_acc = convergecast_aggregate(
            ref_tree, dict(values), combine, ref_run
        )
        np_acc = convergecast_aggregate(
            np_tree, dict(values), combine, np_run
        )
        assert ref_acc == np_acc
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    def test_single_node_graph(self):
        graph = WeightedGraph(["only"], [], validate=False)
        ref_run = CongestRun(graph)
        ref_tree = build_bfs_tree(graph, run=ref_run)
        np_run = NumpyCongestRun(graph)
        np_tree = build_bfs_tree(graph, run=np_run)
        assert ref_tree.root == np_tree.root == "only"
        assert ref_tree.depth == np_tree.depth == 0
        assert broadcast_items(np_tree, [("x", 1)], np_run) == [("x", 1)]
        assert (
            convergecast_aggregate(np_tree, {"only": 7}, max, np_run) == 7
        )
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    def test_unscalable_edge_weight_falls_back_exactly(self):
        # Float weights cannot enter the int64 grid: the kernel must
        # decline and the python path must produce the same
        # execution as reference.
        graph = _build_graph("random", 10, 99, "small")
        weight = lambda u, v: 1.5  # noqa: E731
        sources = {graph.nodes[0]: (Fraction(0), "A")}
        ref_run = CongestRun(graph)
        ref = bellman_ford(graph, sources, ref_run, edge_weight=weight)
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(graph, sources, np_run, edge_weight=weight)
        assert list(ref.dist.items()) == list(fast.dist.items())
        assert ref.tag == fast.tag and ref.parent == fast.parent
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    def test_equal_repr_distinct_tags_share_a_rank(self):
        # Two distinct tag objects with equal reprs must tie-break as
        # equals, exactly like the reference's repr-string comparison.
        class Tag:
            def __init__(self, name, salt):
                self.name = name
                self.salt = salt

            def __repr__(self):
                return f"Tag({self.name})"

            def __hash__(self):
                return hash((self.name, self.salt))

            def __eq__(self, other):
                return (
                    isinstance(other, Tag)
                    and (self.name, self.salt) == (other.name, other.salt)
                )

        graph = _build_graph("path", 8, 3, "small")
        t1, t2 = Tag("x", 1), Tag("x", 2)
        sources = {
            graph.nodes[0]: (Fraction(0), t1),
            graph.nodes[-1]: (Fraction(0), t2),
        }
        ref = bellman_ford(graph, sources, CongestRun(graph))
        fast = bellman_ford(graph, sources, NumpyCongestRun(graph))
        assert ref.dist == fast.dist
        assert ref.tag == fast.tag
        assert ref.parent == fast.parent


# ---------------------------------------------------------------------
# Scaling and overflow guards
# ---------------------------------------------------------------------


class TestScalingGuards:
    def test_scale_fractions_int_passthrough(self):
        assert scale_fractions([1, 2, 3]) == ([1, 2, 3], 1)

    def test_scale_fractions_lcm(self):
        scaled = scale_fractions([Fraction(1, 2), Fraction(1, 3), 5])
        assert scaled == ([3, 2, 30], 6)

    def test_scale_fractions_rejects_floats(self):
        assert scale_fractions([1, 2.5]) is None

    def test_scale_fractions_rejects_giant_denominators(self):
        assert scale_fractions([Fraction(1, 2 ** 62)]) is None

    def test_scale_fractions_rejects_out_of_bound_values(self):
        assert scale_fractions([2 ** 62]) is None
        assert scale_fractions([Fraction(2 ** 61, 1), Fraction(1, 4)]) is None

    def test_assert_int64_bounds(self):
        assert_int64_bounds(np.array([2 ** 62 - 1, -(2 ** 62 - 1)]), "ok")
        with pytest.raises(AssertionError, match="int64 bound"):
            assert_int64_bounds(np.array([2 ** 62]), "ctx")

    def test_topology_rejects_out_of_bound_weights(self):
        graph = WeightedGraph(
            ["a", "b"], [("a", "b", 2 ** 62)], validate=False
        )
        with pytest.raises(OverflowError):
            NumpyCongestRun(graph)
        with pytest.raises(OverflowError):
            make_ledger_run("numpy", graph)
        # auto degrades to flatarray instead of failing.
        spec = {
            "name": "auto",
            "params": {"threshold": 1, "numpy_threshold": 1},
        }
        assert type(make_ledger_run(spec, graph)) is FastCongestRun

    def test_near_bound_weights_decline_and_fall_back(self):
        # 2^61 weights compile (below the 2^62 gate) but the BF bound
        # check n·max_w must decline; conformance still holds via the
        # fallback branch.
        graph = _build_graph("path", 6, 5, "duplicate-large")
        sources = {graph.nodes[0]: (Fraction(0), "A")}
        ref_run = CongestRun(graph)
        ref = bellman_ford(graph, sources, ref_run)
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(graph, sources, np_run)
        assert list(ref.dist.items()) == list(fast.dist.items())
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    def test_bound_covers_candidates_one_hop_past_n_minus_1(self):
        # Settled distances reach only 2^62 - 2 (at n02, n-1 = 2 hops),
        # but n02 then offers 3·(2^61 - 1) back to n01: an n-1 hop
        # bound let the kernel run into its int64 assertion.
        weight = 2 ** 61 - 1
        graph = WeightedGraph(
            ["n00", "n01", "n02"],
            [("n00", "n01", weight), ("n01", "n02", weight)],
            validate=False,
        )
        sources = {"n00": (Fraction(0), "A")}
        ref_run = CongestRun(graph)
        ref = bellman_ford(graph, sources, ref_run)
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(graph, sources, np_run)
        assert ref.dist["n02"] == 2 ** 62 - 2
        assert list(ref.dist.items()) == list(fast.dist.items())
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)


# ---------------------------------------------------------------------
# Array kernels against naive python
# ---------------------------------------------------------------------


class TestArrayKernels:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_gather_out_edges_matches_naive(self, seed):
        graph = _build_graph("random", 12, seed, "small")
        npc = NumpyTopology(graph)
        rng = random.Random(seed)
        ranks = np.asarray(
            sorted(rng.sample(range(len(npc.order)), rng.randint(0, 6))),
            dtype=np.int64,
        )
        positions, senders, targets = gather_out_edges(
            npc.indptr, npc.indices, ranks
        )
        naive = []
        for r in ranks.tolist():
            for pos in range(int(npc.indptr[r]), int(npc.indptr[r + 1])):
                naive.append((pos, r, int(npc.indices[pos])))
        assert list(zip(
            positions.tolist(), senders.tolist(), targets.tolist()
        )) == naive

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_grow_radii_matches_python_loop(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 16)
        leftover = np.asarray(
            [rng.randint(0, 1000) for _ in range(n)], dtype=np.int64
        )
        dist = np.asarray(
            [rng.randint(0, 1000) for _ in range(n)], dtype=np.int64
        )
        grow = np.asarray(
            [rng.random() < 0.5 for _ in range(n)], dtype=bool
        )
        cand = np.asarray(
            [rng.random() < 0.5 for _ in range(n)], dtype=bool
        )
        mu = rng.randint(0, 1000)
        new_leftover, absorbed = grow_radii(leftover, grow, dist, cand, mu)
        for i in range(n):
            expected = leftover[i] + mu if grow[i] else leftover[i]
            if cand[i] and dist[i] <= mu:
                assert absorbed[i]
                expected = mu - dist[i]
            else:
                assert not absorbed[i]
            assert new_leftover[i] == expected

    def test_grow_radii_rejects_out_of_bound_mu(self):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(AssertionError, match="int64 bound"):
            grow_radii(one, one.astype(bool), one, one.astype(bool),
                       INT64_LIMIT)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_apply_radius_growth_matches_python_loops(self, seed):
        rng = random.Random(seed)
        graph = _build_graph("random", 10, seed, "small")
        nodes = list(graph.nodes)
        npc = NumpyCongestRun(graph).npc
        covered = rng.sample(nodes, rng.randint(1, 6))
        leftover = {
            v: Fraction(rng.randint(0, 9), rng.choice([1, 2, 3]))
            for v in covered
        }
        owner = {v: (v if v in covered else None) for v in nodes}
        parent = {v: None for v in nodes}
        sources = {v: None for v in covered if rng.random() < 0.8}
        reached = rng.sample(nodes, rng.randint(0, len(nodes)))
        tree_dist = {
            v: Fraction(rng.randint(0, 9), rng.choice([1, 2, 3]))
            for v in reached
        }
        tree_owner = {v: rng.choice(covered) for v in nodes}
        tree_parent = {v: rng.choice(nodes) for v in nodes}
        mu = Fraction(rng.randint(0, 9), rng.choice([1, 2, 3]))

        # Reference loops on copies.
        exp_leftover = dict(leftover)
        exp_owner = dict(owner)
        exp_parent = dict(parent)
        for x, lo in list(exp_leftover.items()):
            if exp_owner[x] is not None and x in sources:
                exp_leftover[x] = lo + mu
        for x, d in tree_dist.items():
            if x in sources:
                continue
            if d <= mu:
                exp_owner[x] = tree_owner[x]
                exp_parent[x] = tree_parent[x]
                exp_leftover[x] = mu - d

        assert apply_radius_growth(
            npc, leftover, owner, parent, sources,
            tree_owner, tree_parent, tree_dist, mu,
        )
        assert list(leftover.items()) == list(exp_leftover.items())
        assert owner == exp_owner
        assert parent == exp_parent

    def test_apply_radius_growth_declines_unscalable(self):
        graph = _build_graph("path", 4, 1, "small")
        npc = NumpyCongestRun(graph).npc
        nodes = list(graph.nodes)
        leftover = {nodes[0]: 0.5}  # float: not scalable
        assert not apply_radius_growth(
            npc, leftover, {v: None for v in nodes},
            {v: None for v in nodes}, {}, {}, {}, {}, Fraction(1),
        )
        assert leftover == {nodes[0]: 0.5}  # untouched on decline


# ---------------------------------------------------------------------
# Ledger bridge
# ---------------------------------------------------------------------


class TestNumpyCongestRun:
    def test_counter_materialization_is_lazy_and_complete(self):
        graph = _build_graph("path", 4, 1, "small")
        run = NumpyCongestRun(graph)
        npc = run.npc
        run.tick()
        run.charge_eids(np.asarray([0, 0, 1], dtype=np.int64))
        run.charge_unique_eids(np.asarray([2], dtype=np.int64))
        counter = run.edge_messages
        assert counter[npc.canon_edges[0]] == 2
        assert counter[npc.canon_edges[1]] == 1
        assert counter[npc.canon_edges[2]] == 1
        # Folding is idempotent: a second read adds nothing.
        assert run.edge_messages[npc.canon_edges[0]] == 2

    def test_rejects_foreign_numpy_topology(self):
        graph_a = _build_graph("path", 4, 1, "small")
        graph_b = _build_graph("path", 4, 2, "small")
        foreign = NumpyCongestRun(graph_b).npc
        with pytest.raises(ValueError):
            NumpyCongestRun(graph_a, npc=foreign)

    def test_is_a_fast_ledger_for_tier_checks(self):
        # Type-based tier checks (the end-to-end benchmark's tier guard)
        # must see the numpy ledger as a FastCongestRun.
        graph = _build_graph("random", 8, 2, "small")
        assert isinstance(NumpyCongestRun(graph), FastCongestRun)
