"""Tests for the simulation-backend subsystem (repro.simbackend)."""

import json

import pytest

from repro.congest.simulator import (
    FloodMaxLeaderElection,
    NodeProgram,
    Simulator,
)
from repro.exceptions import CongestViolationError, SimulationError
from repro.netmodel import TraceRecorder
from repro.simbackend import (
    BACKENDS,
    AutoBackend,
    FlatArrayBackend,
    SimulationBackend,
    build_backend,
    is_default_backend,
    normalize_backend,
)

ALL_BACKENDS = sorted(BACKENDS)


class TestSpecNormalization:
    def test_none_and_name_and_dict(self):
        assert normalize_backend(None) == {"name": "reference", "params": {}}
        assert normalize_backend("flatarray") == {
            "name": "flatarray", "params": {},
        }
        spec = normalize_backend(
            {"name": "auto", "params": {"threshold": 2}}
        )
        assert spec == {"name": "auto", "params": {"threshold": 2}}

    def test_backend_instance_round_trips(self):
        backend = AutoBackend(threshold=3)
        spec = normalize_backend(backend)
        clone = build_backend(json.loads(json.dumps(spec)))
        assert isinstance(clone, AutoBackend)
        assert clone.threshold == 3

    def test_default_detection(self):
        assert is_default_backend(None)
        assert is_default_backend("reference")
        assert not is_default_backend("flatarray")
        assert not is_default_backend(
            {"name": "reference", "params": {"x": 1}}
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unexpected backend spec keys"):
            normalize_backend({"name": "flatarray", "oops": 1})
        with pytest.raises(ValueError, match="unknown simulation backend"):
            build_backend("quantum")
        with pytest.raises(ValueError, match="bad parameters"):
            build_backend({"name": "auto", "params": {"nope": 1}})
        with pytest.raises(TypeError):
            normalize_backend(42)

    def test_registry_covers_all_builtins(self):
        # The numpy tier registers exactly when the optional extra is
        # importable (the registry's own gate — find_spec would call a
        # present-but-broken numpy "available"); the dependency-free
        # registry stays three-strong.
        expected = {"reference", "flatarray", "auto"}
        try:
            import numpy  # noqa: F401
        except ImportError:
            pass
        else:
            expected.add("numpy")
        assert set(BACKENDS) == expected
        for name, cls in BACKENDS.items():
            assert issubclass(cls, SimulationBackend)
            assert cls.name == name

    def test_instance_passes_through_build(self):
        backend = FlatArrayBackend()
        assert build_backend(backend) is backend


class TestFacadeDelegation:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_simulator_exposes_backend(self, path5, backend):
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, programs, backend=backend)
        assert sim.backend.name == backend
        assert sim.round == 0
        rounds = sim.run_to_completion()
        assert sim.round == rounds
        assert sim.all_halted or not sim.has_pending

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_violations_surface_through_any_backend(self, path5, backend):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(4, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(
            path5, {v: Bad() for v in path5.nodes}, backend=backend
        )
        with pytest.raises(CongestViolationError, match="non-neighbor"):
            try:
                sim.run_to_completion()
            finally:
                sim.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_double_send_rejected(self, path5, backend):
        class Chatty(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(
            path5, {v: Chatty() for v in path5.nodes}, backend=backend
        )
        with pytest.raises(CongestViolationError, match="already sent"):
            try:
                sim.run_to_completion()
            finally:
                sim.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_max_rounds_guard(self, path5, backend):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

            def on_round(self, ctx, inbox):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

        sim = Simulator(
            path5, {v: Forever() for v in path5.nodes}, backend=backend
        )
        with pytest.raises(SimulationError, match="did not quiesce"):
            sim.run_to_completion(max_rounds=5)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_manual_stepping_matches_run_to_completion(self, path5, backend):
        stepped = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, stepped, backend=backend)
        sim.start()
        while sim.step():
            pass
        ran = {v: FloodMaxLeaderElection() for v in path5.nodes}
        rounds = Simulator(path5, ran, backend=backend).run_to_completion()
        assert sim.round == rounds
        assert all(p.leader == 4 for p in stepped.values())
        assert [p.leader for p in stepped.values()] == [
            p.leader for p in ran.values()
        ]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_close_is_idempotent(self, tmp_path, path5, backend):
        path = tmp_path / "trace.jsonl"
        trace = TraceRecorder(path=path)
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, programs, trace=trace, backend=backend)
        sim.run_to_completion()
        sim.close()
        sim.close()
        assert all(p.leader == 4 for p in programs.values())
        lines = path.read_text().splitlines()
        assert len(lines) == len(trace.events) > 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_slots_program_state_reaches_caller_objects(self, path5, backend):
        programs = {v: SlotFlood() for v in path5.nodes}
        sim = Simulator(path5, programs, backend=backend)
        sim.run_to_completion()
        # Both the dict state (leader) and the slot state (seen_rounds)
        # live on the objects the caller constructed.
        assert all(p.leader == 4 for p in programs.values())
        assert all(p.seen_rounds > 0 for p in programs.values())


class SlotFlood(FloodMaxLeaderElection):
    """FloodMax with an extra ``__slots__``-declared counter, so engines
    are checked against program state that has no ``__dict__`` entry."""

    __slots__ = ("seen_rounds",)

    def __init__(self):
        super().__init__()
        self.seen_rounds = 0

    def on_round(self, ctx, inbox):
        self.seen_rounds += 1
        super().on_round(ctx, inbox)


class TestFlatArrayInternals:
    def test_eids_follow_canonical_order(self):
        from repro.model.graph import WeightedGraph
        from repro.netmodel import node_sort_key

        # Mixed-digit IDs: repr order (10 < 2 < 9) must not leak in.
        senders = [2, 9, 10]
        graph = WeightedGraph([5] + senders, [(s, 5, 1) for s in senders])
        programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
        sim = Simulator(graph, programs, backend="flatarray")
        backend = sim.backend
        pairs = list(zip(backend._eid_sender, backend._eid_receiver))
        assert pairs == sorted(
            pairs, key=lambda p: (node_sort_key(p[0]), node_sort_key(p[1]))
        )
        sim.run_to_completion()
        assert all(p.leader == 10 for p in programs.values())
