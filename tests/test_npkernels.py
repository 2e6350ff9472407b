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
    NumpyCongestRun,
    NumpyTopology,
    assert_int64_bounds,
    gather_out_edges,
    scaled_reduced_weights,
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
        st.sampled_from([None, 1, 2, 4]),
        st.integers(0, 10 ** 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_bellman_ford_matches_reference(
        self, graph, num_sources, max_iterations, use_blocked, scale, seed
    ):
        """Graph weights (scale None), and Ŵ at scale 1, 2 or 4 with
        random leftovers up to twice the largest scaled weight."""
        rng = random.Random(seed)
        nodes = list(graph.nodes)
        picks = rng.sample(nodes, min(num_sources, len(nodes)))
        tags = ["A", "B", "A"]
        dists = [0, 1, 5]
        sources = {
            v: (dists[i % 3], tags[i % 3]) for i, v in enumerate(picks)
        }
        blocked = None
        if use_blocked:
            rest = [v for v in nodes if v not in sources]
            if rest:
                blocked = frozenset(rng.sample(rest, 1))
        kwargs = {"blocked": blocked, "max_iterations": max_iterations}
        if scale is not None:
            top = 2 * scale * max((w for _, _, w in graph.edges()), default=1)
            kwargs["scale"] = scale
            kwargs["leftover"] = {
                v: rng.randint(0, top) for v in nodes if rng.random() < 0.5
            }
        ref_run = CongestRun(graph)
        ref = bellman_ford(graph, sources, ref_run, **kwargs)
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(graph, sources, np_run, **kwargs)
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
            graph.nodes[0]: (0, t1),
            graph.nodes[-1]: (0, t2),
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
        sources = {graph.nodes[0]: (0, "A")}
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
        sources = {"n00": (0, "A")}
        ref_run = CongestRun(graph)
        ref = bellman_ford(graph, sources, ref_run)
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(graph, sources, np_run)
        assert ref.dist["n02"] == 2 ** 62 - 2
        assert list(ref.dist.items()) == list(fast.dist.items())
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)


def _path(weight):
    return WeightedGraph(
        ["n00", "n01", "n02"],
        [("n00", "n01", weight), ("n01", "n02", weight)],
        validate=False,
    )


#: One workload per ``return None`` in ``bellman_ford_numpy``:
#: (graph weight, start distance, leftover of n00, scale).
DECLINES = {
    # W·scale = 2^70: the Ŵ array cannot be built in int64.
    "reduced weights overflow": (2 ** 40, 0, 1, 2 ** 30),
    "distance bound overflow": (2 ** 61, 0, 0, 1),
}


def _reduced_weights(weight, leftover, scale):
    run = NumpyCongestRun(_path(weight))
    return run, scaled_reduced_weights(run, {"n00": leftover}, scale)


#: One call per decline of the moat-phase kernel
#: (``scaled_reduced_weights``): reason → a call returning
#: (ledger, kernel result).
PHASE_DECLINES = {
    "reduced weights overflow": lambda: _reduced_weights(2 ** 40, 1, 2 ** 30),
}


class TestDeclineCounts:
    @pytest.mark.parametrize("reason", sorted(DECLINES))
    def test_each_decline_is_counted_with_its_reason(self, reason):
        weight, start, lo, scale = DECLINES[reason]
        graph = _path(weight)
        sources = {"n00": (start, "A")}
        kwargs = {"leftover": {"n00": lo}, "scale": scale}
        ref_run = CongestRun(graph)
        ref = bellman_ford(graph, sources, ref_run, **kwargs)
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(graph, sources, np_run, **kwargs)
        assert np_run.declines == {reason: 1}
        assert list(ref.dist.items()) == list(fast.dist.items())
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    @pytest.mark.parametrize("start", [2 ** 62, -(2 ** 62), 2 ** 70])
    def test_out_of_bound_start_declines_on_the_distance_bound(self, start):
        # Starts are ints of any size; one that int64 cannot hold falls
        # back to the python branch instead of reaching the array.
        graph = _path(3)
        sources = {"n00": (start, "A"), "n02": (0, "B")}
        ref_run = CongestRun(graph)
        ref = bellman_ford(graph, sources, ref_run)
        np_run = NumpyCongestRun(graph)
        fast = bellman_ford(graph, sources, np_run)
        assert np_run.declines == {"distance bound overflow": 1}
        assert list(ref.dist.items()) == list(fast.dist.items())
        assert fast.dist["n00"] == start
        assert _ledger_fp(ref_run) == _ledger_fp(np_run)

    def test_accepted_kernel_counts_nothing(self):
        np_run = NumpyCongestRun(_path(3))
        graph = np_run.graph
        bellman_ford(graph, {"n00": (1, "A")}, np_run)
        bellman_ford(
            graph, {"n00": (1, "A")}, np_run, leftover={"n01": 5}, scale=4
        )
        assert not np_run.declines

    @pytest.mark.parametrize("reason", sorted(PHASE_DECLINES))
    def test_each_phase_kernel_decline_is_counted(self, reason):
        run, result = PHASE_DECLINES[reason]()
        assert result is None
        assert run.declines == {reason: 1}

    def test_accepted_phase_kernels_count_nothing(self):
        run, result = _reduced_weights(3, 1, 2)
        assert result is not None and not run.declines

    def test_leftover_beyond_int64_covers_its_edges(self):
        run, result = _reduced_weights(3, 2 ** 70, 1)
        assert result.tolist() == [0, 3] and not run.declines

    def test_profile_reports_declines_and_plain_records_do_not_change(self):
        from repro.engine.jobs import expand_jobs
        from repro.engine.registry import ScenarioSpec
        from repro.engine.runner import execute_job
        from repro.perf.report import render_profile_report

        def record(profile, max_weight, backend="numpy"):
            spec = ScenarioSpec(
                name="declines", family="gnp", algorithms=("distributed",),
                grid={"n": 10, "p": 0.4, "k": 2, "component_size": 2,
                      "max_weight": max_weight},
                seeds=1, backend=backend, profile=profile,
            )
            result = execute_job(expand_jobs(spec)[0].to_dict())
            if not profile:
                result["metrics"].pop("wall_time")
            return result

        def outcome(plain):
            return {
                key: value for key, value in plain.items()
                if key not in ("backend", "backend_name", "key")
            }

        profiled = record(True, 20)
        assert "declines" not in profiled["profile"]
        # Near-2^61 weights: n·W leaves int64, so Bellman–Ford declines
        # and the python branch gives the reference ledger's record.
        plain_declined = record(False, 2 ** 60)
        assert "profile" not in plain_declined
        assert outcome(plain_declined) == outcome(
            record(False, 2 ** 60, "reference")
        )
        profiled_declined = record(True, 2 ** 60)
        declines = profiled_declined["profile"]["declines"]
        assert declines and set(declines) <= set(DECLINES) | set(
            PHASE_DECLINES
        )
        text = render_profile_report([profiled_declined])
        for reason, count in declines.items():
            assert f"numpy kernel declined ({reason}): {count}" in text
        assert "declined" not in render_profile_report([profiled])


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

    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_scaled_reduced_weights_match_python(self, seed, scale):
        """Ŵ_j of Definition 4.5, max(0, W − Σ_{l > 0} min(W, l)) in
        exact Fractions, times ``scale`` on every canonical edge."""
        rng = random.Random(seed)
        graph = _build_graph("random", 10, seed, "small")
        run = NumpyCongestRun(graph)
        covered = rng.sample(list(graph.nodes), rng.randint(0, 6))
        leftover = {v: rng.randint(0, 8 * scale) for v in covered}
        reduced = scaled_reduced_weights(run, leftover, scale)
        assert not run.declines
        for eid, (u, v) in enumerate(run.npc.canon_edges):
            w = Fraction(graph.weight(u, v))
            cov = sum(
                (min(w, Fraction(leftover[x], scale))
                 for x in (u, v) if leftover.get(x, 0) > 0),
                Fraction(0),
            )
            assert int(reduced[eid]) == max(Fraction(0), w - cov) * scale


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

    def test_python_charges_leave_kernel_charges_pending(self):
        # charge_messages adds to the Counter without folding the array:
        # the two meet on the first read, and sum.
        graph = _build_graph("path", 4, 1, "small")
        run = NumpyCongestRun(graph)
        npc = run.npc
        run.tick()
        run.charge_eids(np.asarray([0, 1], dtype=np.int64))
        run.tick_edges([npc.canon_edges[0], npc.canon_edges[2]])
        assert run._pending_dirty
        assert run.messages == 4
        assert dict(run.edge_messages) == {
            npc.canon_edges[0]: 2, npc.canon_edges[1]: 1, npc.canon_edges[2]: 1
        }

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
