"""Tests for the generic node-program simulator."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.congest import CongestRun
from repro.congest.simulator import EchoBroadcast, FloodMaxLeaderElection, NodeProgram, Simulator
from repro.engine.registry import GRAPH_FAMILIES
from repro.exceptions import CongestViolationError, SimulationError
from repro.model import WeightedGraph
from repro.netmodel import TraceRecorder


class TestSimulatorCore:
    def test_requires_program_per_node(self, path5):
        with pytest.raises(SimulationError):
            Simulator(path5, {0: FloodMaxLeaderElection()})

    def test_send_to_non_neighbor_rejected(self, path5):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(4, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Bad() for v in path5.nodes})
        with pytest.raises(CongestViolationError):
            sim.start()

    def test_double_send_rejected(self, path5):
        class Chatty(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Chatty() for v in path5.nodes})
        with pytest.raises(CongestViolationError):
            sim.start()

    def test_rounds_charged_to_shared_ledger(self, path5):
        run = CongestRun(path5)
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, programs, run=run)
        sim.run_to_completion()
        assert run.rounds > 0
        assert run.messages > 0

    def test_non_terminating_program_guard(self, path5):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

            def on_round(self, ctx, inbox):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

        sim = Simulator(path5, {v: Forever() for v in path5.nodes})
        with pytest.raises(SimulationError):
            sim.run_to_completion(max_rounds=10)

    def test_edge_weight_accessor(self, triangle):
        seen = {}

        class Probe(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    seen["w"] = ctx.edge_weight(2)
                ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt()

        Simulator(triangle, {v: Probe() for v in triangle.nodes}).start()
        assert seen["w"] == 4


class TestRunLifecycle:
    """The public loop surface: round counter, stepping, errors raised
    through run_to_completion, trace closing, caller-owned state."""

    def test_round_counter_tracks_the_run(self, path5):
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, programs)
        assert sim.round == 0
        rounds = sim.run_to_completion()
        assert sim.round == rounds
        assert sim.all_halted or not sim.has_pending

    def test_violation_surfaces_through_run_to_completion(self, path5):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(4, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Bad() for v in path5.nodes})
        with pytest.raises(CongestViolationError, match="non-neighbor"):
            try:
                sim.run_to_completion()
            finally:
                sim.close()

    def test_double_send_surfaces_through_run_to_completion(self, path5):
        class Chatty(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Chatty() for v in path5.nodes})
        with pytest.raises(CongestViolationError, match="already sent"):
            try:
                sim.run_to_completion()
            finally:
                sim.close()

    def test_max_rounds_guard_message(self, path5):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

            def on_round(self, ctx, inbox):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

        sim = Simulator(path5, {v: Forever() for v in path5.nodes})
        with pytest.raises(SimulationError, match="did not quiesce"):
            sim.run_to_completion(max_rounds=5)

    def test_manual_stepping_matches_run_to_completion(self, path5):
        stepped = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, stepped)
        sim.start()
        while sim.step():
            pass
        ran = {v: FloodMaxLeaderElection() for v in path5.nodes}
        rounds = Simulator(path5, ran).run_to_completion()
        assert sim.round == rounds
        assert all(p.leader == 4 for p in stepped.values())
        assert [p.leader for p in stepped.values()] == [
            p.leader for p in ran.values()
        ]

    def test_close_is_idempotent(self, tmp_path, path5):
        path = tmp_path / "trace.jsonl"
        trace = TraceRecorder(path=path)
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, programs, trace=trace)
        sim.run_to_completion()
        sim.close()
        sim.close()
        assert all(p.leader == 4 for p in programs.values())
        lines = path.read_text().splitlines()
        assert len(lines) == len(trace.events) > 0

    def test_slots_program_state_reaches_caller_objects(self, path5):
        programs = {v: SlotFlood() for v in path5.nodes}
        Simulator(path5, programs).run_to_completion()
        # Both the dict state (leader) and the slot state (seen_rounds)
        # live on the objects the caller constructed.
        assert all(p.leader == 4 for p in programs.values())
        assert all(p.seen_rounds > 0 for p in programs.values())


class SlotFlood(FloodMaxLeaderElection):
    """FloodMax with an extra ``__slots__``-declared counter, so the loop
    is checked against program state that has no ``__dict__`` entry."""

    __slots__ = ("seen_rounds",)

    def __init__(self):
        super().__init__()
        self.seen_rounds = 0

    def on_round(self, ctx, inbox):
        self.seen_rounds += 1
        super().on_round(ctx, inbox)


class _Tag:
    """A hashable node with a controllable repr (adversarial for sorting)."""

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


class TestDeliveryOrder:
    @staticmethod
    def _inbox_order(graph, receiver, payloads):
        """Sender labels in ``receiver``'s round-1 inbox."""
        received = []

        class Sender(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id in payloads:
                    ctx.send(receiver, payloads[ctx.node_id])

            def on_round(self, ctx, inbox):
                ctx.halt()

        class Receiver(NodeProgram):
            def on_start(self, ctx):
                pass

            def on_round(self, ctx, inbox):
                received.extend(sender for sender, _ in inbox)
                ctx.halt()

        programs = {
            v: Receiver() if v == receiver else Sender() for v in graph.nodes
        }
        Simulator(graph, programs).run_to_completion()
        return received

    def test_inbox_sorted_by_sender_not_payload(self, path5):
        star = WeightedGraph([0, 1, 2, 3], [(1, 0, 1), (2, 0, 1), (3, 0, 1)])
        for payloads in ({1: "z", 2: "a", 3: "m"}, {1: 0, 2: 99, 3: -5}):
            assert self._inbox_order(star, 0, payloads) == [1, 2, 3]

    def test_inbox_order_numeric_with_mixed_digit_ids(self):
        # repr-sorting would interleave two-digit IDs ("10" < "2" < "9");
        # the type-stable key sorts sender IDs numerically.
        senders = [2, 9, 10, 11]
        star = WeightedGraph([5] + senders, [(s, 5, 1) for s in senders])
        payloads = {s: "p" for s in senders}
        assert self._inbox_order(star, 5, payloads) == [2, 9, 10, 11]

    def test_order_independent_of_payload_contents(self):
        # Adversarial node reprs make the repr of the *whole* outbox item
        # diverge only inside the payload region: the old sort key
        # (repr of ((sender, receiver), payload)) flipped the delivery
        # order depending on the payload, the fixed key cannot.
        receiver = _Tag("r")
        plain = _Tag("a")
        tricky = _Tag("a, r), Z")
        graph = WeightedGraph(
            [receiver, plain, tricky],
            [(plain, receiver, 1), (tricky, receiver, 1)],
        )
        orders = [
            self._inbox_order(graph, receiver, {plain: payload, tricky: 0})
            for payload in (5, ["x"])
        ]
        assert orders[0] == orders[1]
        assert [s.label for s in orders[0]] == ["a", "a, r), Z"]


class TestMaxRoundsLimit:
    class _Forever(NodeProgram):
        def __init__(self):
            self.rounds_seen = 0

        def on_start(self, ctx):
            for v in ctx.neighbors:
                ctx.send(v, "ping")

        def on_round(self, ctx, inbox):
            self.rounds_seen += 1
            for v in ctx.neighbors:
                ctx.send(v, "ping")

    def test_limit_is_inclusive_not_exceeded(self, path5):
        programs = {v: self._Forever() for v in path5.nodes}
        sim = Simulator(path5, programs)
        with pytest.raises(SimulationError):
            sim.run_to_completion(max_rounds=5)
        # Exactly max_rounds rounds executed, never max_rounds + 1.
        assert max(p.rounds_seen for p in programs.values()) == 5

    def test_zero_limit_executes_no_rounds(self, path5):
        programs = {v: self._Forever() for v in path5.nodes}
        sim = Simulator(path5, programs)
        with pytest.raises(SimulationError):
            sim.run_to_completion(max_rounds=0)
        assert all(p.rounds_seen == 0 for p in programs.values())

    def test_quiescing_exactly_at_limit_succeeds(self, path5):
        class Relay(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "tok")

            def on_round(self, ctx, inbox):
                if inbox and ctx.node_id < 4:
                    ctx.send(ctx.node_id + 1, "tok")

        programs = {v: Relay() for v in path5.nodes}
        rounds = Simulator(path5, programs).run_to_completion(max_rounds=4)
        assert rounds == 4


class TestFloodMax:
    def test_everyone_learns_max(self, grid44):
        programs = {v: FloodMaxLeaderElection() for v in grid44.nodes}
        sim = Simulator(grid44, programs)
        rounds = sim.run_to_completion()
        top = max(grid44.nodes)
        assert all(p.leader == top for p in programs.values())
        # Diameter-ish rounds plus patience slack.
        assert rounds <= grid44.unweighted_diameter() + 6

    def test_on_path(self, path5):
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        Simulator(path5, programs).run_to_completion()
        assert all(p.leader == 4 for p in programs.values())

    def test_two_digit_ids_beat_repr_order(self):
        # Regression: repr(9) > repr(10), so the old comparison elected
        # node 9 on any graph containing both. Integer IDs must elect 10.
        graph = WeightedGraph([9, 10], [(9, 10, 1)])
        programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
        Simulator(graph, programs).run_to_completion()
        assert programs[9].leader == 10
        assert programs[10].leader == 10

    def test_wider_id_range_elects_true_max(self):
        nodes = [1, 5, 9, 10, 11, 30, 100]
        edges = [(a, b, 1) for a, b in zip(nodes, nodes[1:])]
        graph = WeightedGraph(nodes, edges)
        programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
        Simulator(graph, programs).run_to_completion()
        assert all(p.leader == 100 for p in programs.values())


class TestEchoBroadcast:
    def test_all_informed_with_parents(self, grid33):
        root = 0
        programs = {v: EchoBroadcast(root) for v in grid33.nodes}
        Simulator(grid33, programs).run_to_completion()
        assert all(p.informed for p in programs.values())
        assert programs[root].parent is None
        for v, p in programs.items():
            if v != root:
                assert p.parent is not None

    def test_parent_pointers_reach_root(self, grid33):
        root = 4
        programs = {v: EchoBroadcast(root) for v in grid33.nodes}
        Simulator(grid33, programs).run_to_completion()
        for v in grid33.nodes:
            x, hops = v, 0
            while x != root:
                x = programs[x].parent
                hops += 1
                assert hops <= grid33.num_nodes

    def test_single_node_graph_completes_immediately(self):
        graph = WeightedGraph([0], [])
        program = EchoBroadcast(0)
        sim = Simulator(graph, {0: program})
        rounds = sim.run_to_completion()
        assert rounds == 0
        assert program.informed and program.done
        assert program.parent is None
        assert sim.all_halted

    def test_path_root_at_one_end(self, path5):
        programs = {v: EchoBroadcast(0) for v in path5.nodes}
        rounds = Simulator(path5, programs).run_to_completion()
        # Wave travels 4 hops out, echo travels 4 hops back.
        assert rounds == 8
        assert all(p.informed and p.done for p in programs.values())
        # The parent pointers form the path back to the root.
        assert [programs[v].parent for v in path5.nodes] == [None, 0, 1, 2, 3]


# -- the pinned execution matrix ---------------------------------------------
#
# ``fixtures/simulator_golden.json`` pins, per (program, graph family,
# network model), everything one simulator execution records: rounds, the
# ledger's rounds/messages/bits and per-edge traffic, the network model's
# statistics, every program's final state, and a sha256 of the trace event
# list. The cases were recorded before the round loop moved into the
# Simulator itself, so the loop is held to that history rather than to
# itself. Regenerate (only for an intended change of execution) with::
#
#     PYTHONPATH=src python tests/test_simulator.py

GOLDEN = Path(__file__).parent / "fixtures" / "simulator_golden.json"

#: Small instances of representative graph families: the four seed
#: families plus ``powerlaw``, whose skewed degrees give the loop hub
#: fan-out and uneven per-node message load.
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

MATRIX = [
    f"{program}/{family}/{network}"
    for program in sorted(PROGRAMS)
    for family in sorted(FAMILY_PARAMS)
    for network in sorted(NETWORKS)
]


def _build_graph(family):
    return GRAPH_FAMILIES[family].build(
        random.Random(0xC0FFEE), **FAMILY_PARAMS[family]
    )


def _execute(case, trace_path=None):
    """One full run of a matrix case; returns its JSON-normalized
    fingerprint plus the raw trace events. With ``trace_path`` the trace
    also streams to that JSONL file."""
    program_key, family, network_key = case.split("/")
    graph = _build_graph(family)
    make_programs, fingerprint = PROGRAMS[program_key]
    programs = make_programs(graph)
    trace = TraceRecorder(path=trace_path)
    sim = Simulator(
        graph,
        programs,
        network=NETWORKS[network_key](graph),
        trace=trace,
        net_seed=17,
    )
    rounds = sim.run_to_completion()
    record = {
        "rounds": rounds,
        "ledger_rounds": sim.run.rounds,
        "messages": sim.run.messages,
        "bits": sim.run.bits,
        "edge_messages": sorted(sim.run.edge_messages.items(), key=repr),
        "network_stats": dict(sim.network.stats),
        "programs": fingerprint(programs, graph),
        "trace_sha256": hashlib.sha256(
            json.dumps(trace.events, sort_keys=True).encode()
        ).hexdigest(),
    }
    return json.loads(json.dumps(record, sort_keys=True)), trace.events


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(MATRIX)


@pytest.mark.parametrize("case", MATRIX)
def test_execution_matches_golden(golden, case):
    actual, _ = _execute(case)
    # Field by field, for readable failures.
    for field, expected in golden[case].items():
        assert actual[field] == expected, f"{case} diverges on {field}"


@pytest.mark.parametrize("case", MATRIX)
def test_streamed_trace_matches_golden(golden, case, tmp_path):
    """The JSONL file a streaming recorder writes carries the pinned event
    list, line for line, under every program, family and network model
    (lost sends, crash losses and delayed deliveries included)."""
    path = tmp_path / "trace.jsonl"
    _, events = _execute(case, trace_path=path)
    streamed = [json.loads(line) for line in path.read_text().splitlines()]
    assert streamed == json.loads(json.dumps(events))
    assert (
        hashlib.sha256(json.dumps(streamed, sort_keys=True).encode()).hexdigest()
        == golden[case]["trace_sha256"]
    )


def test_pinned_grid_floodmax_elects_the_maximum(golden):
    record = golden["floodmax/grid/reliable"]
    assert record["rounds"] > 0 and record["messages"] > 0
    graph = _build_graph("grid")
    assert record["programs"] == [max(graph.nodes)] * graph.num_nodes


def test_lossy_channel_misbehaves_and_is_accounted(golden):
    case = "floodmax/gnp/lossy"
    actual, events = _execute(case)
    stats = actual["network_stats"]
    assert stats == golden[case]["network_stats"]
    # The channel actually misbehaved on this seed, and every final drop
    # shows up as a dropped send in the trace.
    assert stats.get("retransmissions", 0) + stats.get("dropped", 0) > 0
    drops = sum(1 for e in events if e["event"] == "send" and e["dropped"])
    assert drops == stats.get("dropped", 0)


def test_ledger_untouched_after_strict_reject():
    """A network model raising mid-flush (strict BandwidthCap) leaves the
    ledger untouched: the loop charges it only after the whole flush."""

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
        network={"model": "bandwidth", "params": {"cap_bits": 64, "strict": True}},
    )
    with pytest.raises(CongestViolationError):
        sim.run_to_completion()
    assert sim.run.rounds == 0
    assert sim.run.messages == 0
    assert dict(sim.run.edge_messages) == {}


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: _execute(case)[0] for case in MATRIX}, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
