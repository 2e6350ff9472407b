"""Cross-backend conformance: every engine computes the same execution.

The reference engine is the regression-pinned semantic baseline; this
suite proves the ``flatarray``, ``auto``, and (when the optional
extra is installed) ``numpy`` engines reproduce it *exactly* — rounds,
ledger traffic (messages and per-edge counters), network-model
statistics, trace event streams, and final program states — across the
full matrix of built-in NodeProgram × graph family × network model
combinations. The ``numpy`` rows carry a skip marker keyed on the
registry, so the dependency-free environment skips them cleanly.

CI runs this file once per backend (``-k flatarray`` / ``-k reference``)
in the conformance matrix; the ids are structured so the filter works.
"""

import random

import pytest

from repro.congest.simulator import (
    EchoBroadcast,
    FloodMaxLeaderElection,
    Simulator,
)
from repro.engine.registry import GRAPH_FAMILIES
from repro.netmodel import TraceRecorder
from repro.simbackend import AutoBackend, numpy_tier_available

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(),
    reason="optional numpy extra not installed",
)

#: The non-reference engines every matrix case runs against.
MATRIX_BACKENDS = [
    "flatarray",
    "auto",
    pytest.param("numpy", marks=requires_numpy),
    pytest.param("auto-numpy", marks=requires_numpy),
]


def _engine_for(backend):
    """Instantiate the matrix engines that need construction parameters.

    ``auto`` is forced to its flat-array choice (threshold=1) and
    ``auto-numpy`` to its numpy choice (both thresholds 1): at these
    graph sizes the default heuristic would pick reference and the case
    would only re-test the baseline against itself. The default-choice
    path is covered by tests/test_perf.py.
    """
    if backend == "auto":
        return AutoBackend(threshold=1)
    if backend == "auto-numpy":
        return AutoBackend(threshold=1, numpy_threshold=1)
    return backend

#: Small instances of representative graph families: the four seed
#: families plus ``powerlaw`` standing in for the workload-suite
#: additions — its skewed degrees give the engines the topology shape
#: (hub fan-out, uneven per-node message load) the others lack. The
#: full family catalog is exercised by the metamorphic property suite
#: (tests/test_properties_workloads.py); pinning all of it here would
#: only re-run the same engine code paths.
FAMILY_PARAMS = {
    "gnp": {"n": 12, "p": 0.3},
    "geometric": {"n": 10, "radius": 0.5},
    "grid": {"rows": 3, "cols": 4},
    "ring": {"num_blobs": 3, "blob_size": 3},
    "powerlaw": {"n": 12, "m_attach": 2},
}

#: Every built-in network model, with adversity parameters that exercise
#: drops, delays, crashes, and fragmentation on these graphs. CrashStop
#: victims are resolved per graph (the first two nodes).
NETWORKS = {
    "reliable": lambda g: "reliable",
    "delay": lambda g: {"model": "delay", "params": {"max_delay": 3}},
    "lossy": lambda g: {
        "model": "lossy", "params": {"drop_p": 0.2, "retransmit": 2},
    },
    "crash": lambda g: {
        "model": "crash",
        "params": {"victims": list(g.nodes[:2]), "at_round": 2},
    },
    "bandwidth": lambda g: {"model": "bandwidth", "params": {"cap_bits": 16}},
}

#: Every built-in NodeProgram, plus its final-state fingerprint.
PROGRAMS = {
    "floodmax": (
        lambda g: {v: FloodMaxLeaderElection() for v in g.nodes},
        lambda programs, g: [programs[v].leader for v in g.nodes],
    ),
    "echo": (
        lambda g: {v: EchoBroadcast(g.nodes[0]) for v in g.nodes},
        lambda programs, g: [
            (programs[v].informed, programs[v].parent, programs[v].done)
            for v in g.nodes
        ],
    ),
}

assert set(FAMILY_PARAMS) <= set(GRAPH_FAMILIES)


def _build_graph(family):
    return GRAPH_FAMILIES[family].build(
        random.Random(0xC0FFEE), **FAMILY_PARAMS[family]
    )


def _execute(backend, program_key, family, network_key):
    """One full run; returns the execution fingerprint."""
    graph = _build_graph(family)
    make_programs, fingerprint = PROGRAMS[program_key]
    programs = make_programs(graph)
    trace = TraceRecorder()
    sim = Simulator(
        graph,
        programs,
        network=NETWORKS[network_key](graph),
        trace=trace,
        net_seed=17,
        backend=backend,
    )
    rounds = sim.run_to_completion()
    return {
        "rounds": rounds,
        "ledger_rounds": sim.run.rounds,
        "messages": sim.run.messages,
        "bits": sim.run.bits,
        "edge_messages": sorted(
            sim.run.edge_messages.items(), key=repr
        ),
        "network_stats": dict(sim.network.stats),
        "programs": fingerprint(programs, graph),
        "trace": trace.events,
    }


#: Reference fingerprints, computed once per (program, family, network).
_reference_cache = {}


def _reference(program_key, family, network_key):
    key = (program_key, family, network_key)
    if key not in _reference_cache:
        _reference_cache[key] = _execute(
            "reference", program_key, family, network_key
        )
    return _reference_cache[key]


# NOTE: engine names appear only in parametrize ids, never in function
# names, so CI's per-engine `-k <backend>` matrix filter selects exactly
# one engine's cases and a failure is attributed to that engine.
@pytest.mark.parametrize("network_key", sorted(NETWORKS))
@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
@pytest.mark.parametrize("program_key", sorted(PROGRAMS))
@pytest.mark.parametrize("backend", MATRIX_BACKENDS)
def test_engine_matches_baseline(backend, program_key, family, network_key):
    expected = _reference(program_key, family, network_key)
    actual = _execute(_engine_for(backend), program_key, family, network_key)
    # Compare field by field for readable failures.
    for field in expected:
        assert actual[field] == expected[field], (
            f"{backend} diverges from reference on {field} "
            f"({program_key} × {family} × {network_key})"
        )


@pytest.mark.parametrize("backend", ["reference"] + MATRIX_BACKENDS)
def test_pinned_grid_execution(backend):
    """The clean-channel FloodMax execution on the 3×4 grid is pinned:
    any engine (including reference itself) must reproduce these counts.
    """
    result = _execute(_engine_for(backend), "floodmax", "grid", "reliable")
    expected = _reference("floodmax", "grid", "reliable")
    assert result == expected
    assert result["rounds"] > 0
    assert result["messages"] > 0
    # Every node elected the true maximum id.
    graph = _build_graph("grid")
    assert result["programs"] == [max(graph.nodes)] * graph.num_nodes


class TestStrictFailureConformance:
    """A network model raising mid-flush (strict BandwidthCap) must leave
    the ledger in the same state on every in-process engine: reference
    only charges the ledger after the whole flush succeeds."""

    @pytest.mark.parametrize("backend", ["reference", "flatarray"])
    def test_ledger_untouched_after_strict_reject(self, backend):
        from repro.congest.simulator import NodeProgram
        from repro.exceptions import CongestViolationError
        from repro.model.graph import WeightedGraph

        class Blob(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "x" * 100)

            def on_round(self, ctx, inbox):
                ctx.halt()

        graph = WeightedGraph([0, 1], [(0, 1, 1)])
        sim = Simulator(
            graph,
            {v: Blob() for v in graph.nodes},
            network={
                "model": "bandwidth",
                "params": {"cap_bits": 64, "strict": True},
            },
            backend=backend,
        )
        with pytest.raises(CongestViolationError):
            sim.run_to_completion()
        assert sim.run.rounds == 0
        assert sim.run.messages == 0
        assert dict(sim.run.edge_messages) == {}


class TestTraceConformance:
    """Satellite: the JSONL event stream from flatarray matches the
    reference recorder event-for-event on a fixed seed."""

    @pytest.mark.parametrize("backend", MATRIX_BACKENDS)
    def test_jsonl_streams_identical(self, tmp_path, backend):
        def run(engine, path):
            graph = _build_graph("gnp")
            trace = TraceRecorder(path=path)
            programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
            sim = Simulator(
                graph,
                programs,
                network={
                    "model": "lossy",
                    "params": {"drop_p": 0.3, "retransmit": 1},
                },
                trace=trace,
                net_seed=23,
                backend=engine,
            )
            sim.run_to_completion()
            trace.close()
            return trace

        ref_path = tmp_path / "reference.jsonl"
        alt_path = tmp_path / f"{backend}.jsonl"
        ref = run("reference", ref_path)
        alt = run(_engine_for(backend), alt_path)
        assert alt.events == ref.events
        # The streamed JSONL files are byte-identical too.
        assert alt_path.read_bytes() == ref_path.read_bytes()

    def test_loss_accounting_matches(self):
        ref = _execute("reference", "floodmax", "gnp", "lossy")
        flat = _execute("flatarray", "floodmax", "gnp", "lossy")
        assert flat["network_stats"] == ref["network_stats"]
        # The channel actually misbehaved on this seed (retries and/or
        # final drops), and both engines drew the identical RNG stream.
        assert (
            ref["network_stats"].get("retransmissions", 0)
            + ref["network_stats"].get("dropped", 0)
        ) > 0
        drops_ref = sum(
            1 for e in ref["trace"] if e["event"] == "send" and e["dropped"]
        )
        drops_flat = sum(
            1 for e in flat["trace"] if e["event"] == "send" and e["dropped"]
        )
        assert drops_flat == drops_ref == ref["network_stats"].get("dropped", 0)
