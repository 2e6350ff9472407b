"""The telemetry subsystem: bus mechanics, the observe-only invariant,
the trace/bench CLI, and TraceRecorder resource discipline.

Four contracts are pinned here:

1. **Telemetry observes, never participates** — with the bus detached,
   engine records and result-store cache keys are byte-identical to the
   seed (the schema v1–v5 key for an unprofiled job is pinned as a
   literal), and attaching a bus changes no logical output.
2. **The bridge is exact** — ``LedgerBridge`` phase events reproduce the
   ledger's own per-phase accounting, an inner ``PhaseProfiler`` riding
   the bridge collects exactly what it would standalone, and
   ``PhaseProfiler.from_events`` rebuilds the same table from the
   stream.
3. **Bounded overhead** — an instrumented pipeline run at n=64 stays
   inside a pinned event-count envelope (phase-granular narration, not
   per-message) and a generous wall-time envelope.
4. **Traces are resource-safe** — ``TraceRecorder`` closes its stream on
   simulator completion *and* on error, closing is idempotent, and the
   streaming and ``dump`` encodings are identical.
"""

import json
import random
import time

import pytest

from repro.cli import main
from repro.congest.run import CongestRun
from repro.congest.simulator import FloodMaxLeaderElection, NodeProgram, Simulator
from repro.core.distributed import distributed_moat_growing
from repro.engine.jobs import Job
from repro.engine.registry import ScenarioSpec
from repro.engine.runner import run_spec
from repro.netmodel import TraceRecorder
from repro.perf import PhaseProfiler, make_ledger_run
from repro.telemetry import (
    CallbackSink,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    RunManifest,
    Telemetry,
    check_benches,
    diff_streams,
    format_progress,
    read_events,
    render_summary,
)
from repro.workloads import random_connected_graph, random_instance

#: The schema v1–v5 cache key of the canonical unprofiled legacy job
#: (same job as tests/test_perf.py's identity pin). Telemetry must never
#: move this: the bus is not part of job identity.
PINNED_LEGACY_KEY = (
    "bc33f70f1c72120772a76c6e3ff382aa9b7b178355ef717cbb6d3249801f7e4e"
)

LEGACY_JOB = {
    "scenario": "s",
    "family": "gnp",
    "family_params": {"n": 12, "p": 0.3},
    "k": 2,
    "component_size": 2,
    "algorithm": "moat",
    "algo_params": {},
    "seed_index": 0,
    "exact": False,
}


def _memory_bus(**manifest_kwargs):
    sink = MemorySink()
    bus = Telemetry(manifest=RunManifest(**manifest_kwargs), sinks=[sink])
    return bus, sink


def _spec(name="tele-spec", algorithms=("distributed",)):
    return ScenarioSpec(
        name=name,
        family="gnp",
        algorithms=tuple(algorithms),
        grid={"n": [12], "p": [0.3], "k": 2, "component_size": 2},
        seeds=2,
    )


def _instrumented_pipeline(n, backend="reference"):
    """One distributed pipeline run narrated onto a fresh bus; returns
    (events, result, run)."""
    instance = random_instance(n, 3, random.Random(n), p=0.35)
    bus, sink = _memory_bus(workload={"n": n})
    with bus:
        run = make_ledger_run(backend, instance.graph)
        bridge = bus.attach_ledger(run)
        result = distributed_moat_growing(instance, run=run)
        bridge.finish()
    return sink.events, result, run


def _logical_profile(table):
    """The deterministic columns of a PhaseProfiler.to_dict()."""
    return [
        (row["phase"], row["rounds"], row["messages"])
        for row in table["phases"]
    ]


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.counter("c").inc(4)
        metrics.gauge("g").set(2.5)
        metrics.histogram("h").observe(1.0)
        metrics.histogram("h").observe(3.0)
        snap = metrics.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_name_bound_to_one_kind(self):
        metrics = MetricsRegistry()
        metrics.counter("x")
        with pytest.raises(TypeError):
            metrics.gauge("x")


class TestTelemetryBus:
    def test_manifest_first_and_envelope_stamps(self):
        bus, sink = _memory_bus(workload={"w": 1})
        bus.emit("ping", value=7)
        bus.close()
        kinds = [e["event"] for e in sink.events]
        assert kinds[0] == "manifest"
        assert kinds[-1] == "run_end"
        run_id = bus.run_id
        assert all(e["run_id"] == run_id for e in sink.events)
        assert [e["seq"] for e in sink.events] == sorted(
            e["seq"] for e in sink.events
        )
        ping = next(e for e in sink.events if e["event"] == "ping")
        assert ping["value"] == 7

    def test_span_nesting_and_error_status(self):
        bus, sink = _memory_bus()
        with bus.span("outer"):
            with bus.span("inner"):
                pass
        with pytest.raises(RuntimeError):
            with bus.span("boom"):
                raise RuntimeError("x")
        ends = {
            e["span"]: e["status"]
            for e in sink.events
            if e["event"] == "span_end"
        }
        assert ends == {"outer": "ok", "outer/inner": "ok", "boom": "error"}

    def test_close_idempotent_and_metrics_snapshot(self):
        bus, sink = _memory_bus()
        bus.counter("n").inc(3)
        bus.close()
        bus.close()
        assert [e["event"] for e in sink.events].count("run_end") == 1
        metrics = next(e for e in sink.events if e["event"] == "metrics")
        assert metrics["counters"]["n"] == 3

    def test_jsonl_sink_roundtrip_and_reopen_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        bus = Telemetry(sinks=[sink])
        bus.emit("one")
        sink.close()
        bus.emit("two")
        bus.close()
        kinds = [e["event"] for e in read_events(path)]
        assert kinds == ["manifest", "one", "two", "run_end"]

    def test_callback_sink_renders_legacy_lines_only(self):
        lines = []
        bus = Telemetry(sinks=[CallbackSink(lines.append)])
        bus.emit(
            "sweep_start", scenario="s", jobs=4, cache_hits=1, to_run=3
        )
        bus.emit("phase", phase="setup", rounds=1, messages=2, bits=48)
        bus.emit(
            "job_end",
            status="completed",
            scenario="s",
            done=2,
            total=3,
            algorithm="moat",
            wall_time=0.25,
        )
        bus.close()
        assert lines == [
            "[s] 4 jobs: 1 cache hits, 3 to run",
            "[s] job 2/3 done: moat (0.250s)",
        ]

    def test_format_progress_failed_job(self):
        line = format_progress(
            {
                "event": "job_end",
                "status": "failed",
                "scenario": "s",
                "done": 1,
                "total": 2,
                "algorithm": "moat",
                "error": "ValueError('x')",
            }
        )
        assert line == "[s] job 1/2 FAILED: moat (ValueError('x'))"


class TestLedgerBridge:
    def test_phase_events_match_ledger_accounting(self):
        graph = random_connected_graph(8, 0.5, random.Random(1))
        run = CongestRun(graph)
        bus, sink = _memory_bus()
        bridge = bus.attach_ledger(run)
        run.set_phase("a")
        run.tick()
        run.charge_messages([(u, v) for u, v, _ in graph.edges()])
        run.set_phase("b")
        run.tick()
        run.tick()
        bridge.finish()
        bus.close()
        phases = {
            e["phase"]: e for e in sink.events if e["event"] == "phase"
        }
        assert phases["a"]["rounds"] == 1
        assert phases["a"]["messages"] == run.messages
        assert phases["a"]["bits"] == run.messages * run.bandwidth_bits
        assert phases["b"]["rounds"] == 2
        assert phases["b"]["messages"] == 0
        metrics = next(e for e in sink.events if e["event"] == "metrics")
        assert metrics["counters"]["ledger.rounds"] == run.rounds
        assert metrics["counters"]["ledger.messages"] == run.messages

    def test_bridge_does_not_change_solver_output(self):
        instance = random_instance(16, 3, random.Random(7), p=0.4)
        plain = distributed_moat_growing(
            instance, run=CongestRun(instance.graph)
        )
        events, bridged, run = (None, None, None)
        bus, sink = _memory_bus()
        with bus:
            run = CongestRun(instance.graph)
            bus.attach_ledger(run)
            bridged = distributed_moat_growing(instance, run=run)
        assert plain.solution.weight == bridged.solution.weight
        assert sorted(plain.solution.edges, key=repr) == sorted(
            bridged.solution.edges, key=repr
        )
        assert plain.rounds == bridged.rounds
        assert plain.run.messages == bridged.run.messages
        assert dict(plain.run.phase_rounds) == dict(bridged.run.phase_rounds)

    def test_inner_profiler_composes_and_from_events_matches(self):
        instance = random_instance(16, 3, random.Random(7), p=0.4)
        run = CongestRun(instance.graph)
        inner = PhaseProfiler()
        inner.attach(run)
        bus, sink = _memory_bus()
        with bus:
            bridge = bus.attach_ledger(run)
            distributed_moat_growing(instance, run=run)
            bridge.finish()
        # The wrapped profiler collected through the bridge; the stream
        # rebuilds the same logical table. The profiler splits charges
        # into span sub-frames ("phase-1/bellman-ford") while the bus
        # narrates at set_phase granularity, so aggregate by top-level
        # phase before comparing.
        rebuilt = PhaseProfiler.from_events(sink.events)
        aggregated = {}
        for row in inner.to_dict()["phases"]:
            top = row["phase"].split("/")[0]
            acc = aggregated.setdefault(top, [0, 0])
            acc[0] += row["rounds"]
            acc[1] += row["messages"]
        inner_rows = {
            (phase, acc[0], acc[1]) for phase, acc in aggregated.items()
        }
        assert inner_rows == set(_logical_profile(rebuilt.to_dict()))
        phase_rounds = {
            r["phase"]: r["rounds"] for r in rebuilt.to_dict()["phases"]
        }
        assert phase_rounds == dict(run.phase_rounds)


class TestDetachedIdentity:
    def test_legacy_cache_key_is_pinned(self):
        assert Job.from_dict(LEGACY_JOB).key == PINNED_LEGACY_KEY

    def test_job_identity_has_no_telemetry_fields(self):
        identity = Job.from_dict(LEGACY_JOB).identity()
        assert "telemetry" not in identity
        assert "run_id" not in identity

    def test_run_spec_records_identical_with_and_without_bus(self):
        spec = _spec()
        detached = run_spec(spec, store=None, parallel=False)
        bus, sink = _memory_bus()
        with bus:
            attached = run_spec(
                spec, store=None, parallel=False, telemetry=bus
            )
        assert detached.executed == attached.executed

        def logical(records):
            rows = []
            for record in records:
                row = json.loads(json.dumps(record))
                row["metrics"].pop("wall_time")
                rows.append(row)
            return rows

        assert logical(detached.records) == logical(attached.records)
        kinds = [e["event"] for e in sink.events]
        assert "sweep_start" in kinds and "sweep_end" in kinds
        assert kinds.count("job_end") == detached.executed

    def test_run_spec_cache_events_and_counters(self, tmp_path):
        from repro.engine.store import ResultStore

        spec = _spec("tele-cache")
        store = ResultStore(tmp_path / "store.jsonl")
        run_spec(spec, store=store, parallel=False)
        bus, sink = _memory_bus()
        with bus:
            stats = run_spec(
                spec, store=store, parallel=False, telemetry=bus
            )
        assert stats.cached == stats.total and stats.executed == 0
        kinds = [e["event"] for e in sink.events]
        assert kinds.count("job_cached") == stats.cached
        metrics = next(e for e in sink.events if e["event"] == "metrics")
        assert metrics["counters"]["engine.cache.hit"] == stats.cached
        assert metrics["counters"]["engine.store.rows_read"] == stats.cached
        assert "engine.store.rows_written" not in metrics["counters"]


class TestOverheadEnvelope:
    def test_attached_pipeline_event_count_envelope_n64(self):
        events, result, run = _instrumented_pipeline(64)
        # Phase-granular narration: manifest + a handful of phase
        # events + metrics/run_end — never per-message or per-round.
        assert 5 <= len(events) <= 40
        phase_events = [e for e in events if e["event"] == "phase"]
        assert 2 <= len(phase_events) <= 20
        assert sum(e["rounds"] for e in phase_events) == result.rounds
        assert sum(e["messages"] for e in phase_events) == run.messages

    def test_attached_wall_time_within_envelope_n64(self):
        instance = random_instance(64, 3, random.Random(64), p=0.35)

        def solve(attach):
            run = CongestRun(instance.graph)
            bus = Telemetry(sinks=[MemorySink()]) if attach else None
            started = time.perf_counter()
            if bus is not None:
                bus.attach_ledger(run)
            distributed_moat_growing(instance, run=run)
            elapsed = time.perf_counter() - started
            if bus is not None:
                bus.close()
            return elapsed

        solve(False)  # warm caches
        detached = min(solve(False) for _ in range(3))
        attached = min(solve(True) for _ in range(3))
        # Generous CI-proof envelope: the bridge adds O(phases) work.
        assert attached <= detached * 5 + 0.5


class _Boom(NodeProgram):
    def on_start(self, ctx):
        for v in ctx.neighbors:
            ctx.send(v, "x")

    def on_round(self, ctx, inbox):
        raise RuntimeError("boom")


class TestTraceRecorder:
    def test_context_manager_closes_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path=path) as trace:
            trace.record_round(0, 1, 1, 0, 32)
            assert trace._handle is not None
        assert trace._handle is None
        assert len(read_events(path)) == 1

    def test_close_idempotent_and_reopen_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = TraceRecorder(path=path)
        trace.record_round(0, 1, 1, 0, 32)
        trace.close()
        trace.close()
        trace.record_round(1, 2, 2, 0, 64)
        trace.close()
        rounds = [e["round"] for e in read_events(path)]
        assert rounds == [0, 1]

    def test_simulator_completion_closes_streaming_trace(self, tmp_path):
        graph = random_connected_graph(6, 0.6, random.Random(3))
        trace = TraceRecorder(path=tmp_path / "t.jsonl")
        sim = Simulator(
            graph,
            {v: FloodMaxLeaderElection() for v in graph.nodes},
            trace=trace,
        )
        sim.run_to_completion()
        assert trace._handle is None
        assert len(read_events(tmp_path / "t.jsonl")) == len(trace.events)

    def test_simulator_error_closes_streaming_trace(self, tmp_path):
        graph = random_connected_graph(6, 0.6, random.Random(3))
        trace = TraceRecorder(path=tmp_path / "t.jsonl")
        sim = Simulator(
            graph, {v: _Boom() for v in graph.nodes}, trace=trace
        )
        with pytest.raises(RuntimeError):
            sim.run_to_completion()
        assert trace._handle is None

    def test_simulator_close_closes_trace(self, tmp_path):
        graph = random_connected_graph(6, 0.6, random.Random(3))
        trace = TraceRecorder(path=tmp_path / "t.jsonl")
        sim = Simulator(
            graph,
            {v: FloodMaxLeaderElection() for v in graph.nodes},
            trace=trace,
        )
        sim.start()
        sim.step()
        sim.close()
        assert trace._handle is None

    def test_dump_matches_streamed_encoding(self, tmp_path):
        streamed = tmp_path / "stream.jsonl"
        trace = TraceRecorder(path=streamed)
        trace.record_send(0, 1, 2, "hello", [1])
        trace.record_lost(1, 2, 1, "crashed")
        trace.record_round(1, 1, 1, 0, 40)
        trace.close()
        dumped = tmp_path / "dump.jsonl"
        trace.dump(dumped)
        assert streamed.read_text() == dumped.read_text()
        loaded = TraceRecorder.load(dumped)
        assert loaded.events == trace.events

    def test_run_id_stamped_and_forwarded_to_bus(self):
        bus, sink = _memory_bus()
        trace = TraceRecorder(telemetry=bus)
        assert trace.run_id == bus.run_id
        trace.record_round(0, 3, 3, 0, 96)
        bus.close()
        assert trace.events[0]["run_id"] == bus.run_id
        forwarded = next(
            e for e in sink.events if e["event"] == "trace.round"
        )
        assert forwarded["sent"] == 3 and forwarded["bits"] == 96


class TestSummaryAndDiff:
    def test_render_summary_totals(self):
        events, result, run = _instrumented_pipeline(24)
        text = render_summary(events, title="t")
        assert "total" in text
        assert str(result.rounds) in text
        assert str(run.messages) in text

    def test_diff_backends_identical(self):
        events_a, _, _ = _instrumented_pipeline(24, "reference")
        events_b, _, _ = _instrumented_pipeline(24, "flatarray")
        identical, report = diff_streams(events_a, events_b)
        assert identical
        assert "logical metrics identical" in report

    def test_diff_flags_divergence_and_missing_phase(self):
        base = [
            {"event": "phase", "phase": "a", "rounds": 1, "messages": 2, "bits": 64},
            {"event": "phase", "phase": "b", "rounds": 3, "messages": 0, "bits": 0},
        ]
        other = [
            {"event": "phase", "phase": "a", "rounds": 2, "messages": 2, "bits": 64},
        ]
        identical, report = diff_streams(base, other)
        assert not identical
        assert "DIFFERS" in report and "MISSING in" in report


class TestCli:
    def test_trace_summary_fresh_run(self, capsys):
        assert main(["trace", "summary", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out and "total" in out

    def test_trace_summary_from_file(self, tmp_path, capsys):
        events, _, _ = _instrumented_pipeline(24)
        path = tmp_path / "events.jsonl"
        path.write_text(
            "\n".join(json.dumps(e, default=repr) for e in events) + "\n"
        )
        assert main(["trace", "summary", str(path)]) == 0
        assert "total" in capsys.readouterr().out

    def test_trace_diff_backends_identical(self, capsys):
        code = main(
            ["trace", "diff", "reference", "flatarray", "--n", "24"]
        )
        assert code == 0
        assert "logical metrics identical" in capsys.readouterr().out

    def test_trace_diff_reference_vs_numpy_identical(self, capsys):
        """Differential round trace: the numpy tier's per-phase
        rounds/messages/bits tables equal reference on the same seeded
        scenario (``repro trace diff`` exits 0)."""
        from repro.simbackend import numpy_tier_available

        if not numpy_tier_available():
            pytest.skip("optional numpy extra not installed")
        code = main(
            ["trace", "diff", "reference", "numpy",
             "--n", "24", "--seed", "7"]
        )
        assert code == 0
        assert "logical metrics identical" in capsys.readouterr().out

    def test_trace_diff_numpy_sublinear_identical(self, capsys):
        from repro.simbackend import numpy_tier_available

        if not numpy_tier_available():
            pytest.skip("optional numpy extra not installed")
        code = main(
            ["trace", "diff", "reference", "numpy",
             "--n", "20", "--algorithm", "sublinear"]
        )
        assert code == 0
        assert "logical metrics identical" in capsys.readouterr().out

    def test_trace_diff_files_differ_exits_nonzero(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(
            json.dumps(
                {"event": "phase", "phase": "x", "rounds": 1,
                 "messages": 1, "bits": 32}
            )
            + "\n"
        )
        b.write_text(
            json.dumps(
                {"event": "phase", "phase": "x", "rounds": 2,
                 "messages": 1, "bits": 32}
            )
            + "\n"
        )
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "DIFFER" in capsys.readouterr().out

    def test_trace_export_filters_kinds(self, tmp_path, capsys):
        events, _, _ = _instrumented_pipeline(24)
        source = tmp_path / "events.jsonl"
        source.write_text(
            "\n".join(json.dumps(e, default=repr) for e in events) + "\n"
        )
        out = tmp_path / "phases.jsonl"
        code = main(
            ["trace", "export", str(source), "--kind", "phase",
             "--out", str(out)]
        )
        assert code == 0
        exported = read_events(out)
        assert exported and all(e["event"] == "phase" for e in exported)

    def _bench_file(self, tmp_path, rounds_delta=0):
        from repro.telemetry.benchcheck import measure_pipeline

        workload = {"algorithm": "distributed", "k": 3, "p": 0.35}
        measured, _ = measure_pipeline(workload, 24, "reference")
        path = tmp_path / "BENCH_small.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "e18-profile",
                    "workload": workload,
                    "entries": [
                        {
                            "n": 24,
                            "backend": "reference",
                            "seconds": measured["seconds"],
                            "rounds": measured["rounds"] + rounds_delta,
                            "messages": measured["messages"],
                            "weight": measured["weight"],
                        }
                    ],
                }
            )
        )
        return path

    def test_bench_check_passes_on_honest_file(self, tmp_path, capsys):
        path = self._bench_file(tmp_path)
        assert main(["bench", "check", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1/1 entries pass" in out

    def test_bench_check_fails_on_logical_drift(self, tmp_path, capsys):
        path = self._bench_file(tmp_path, rounds_delta=1)
        assert main(["bench", "check", "--file", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_check_api_telemetry_stream(self, tmp_path):
        path = self._bench_file(tmp_path)
        bus, sink = _memory_bus()
        with bus:
            report = check_benches([path], telemetry=bus)
        assert report.ok
        checks = [e for e in sink.events if e["event"] == "bench_check"]
        assert len(checks) == 1 and checks[0]["ok"]

    def _numpy_bench_file(self, tmp_path, entries):
        path = tmp_path / "BENCH_numpy_small.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "e22-numpy",
                    "workload": {
                        "degree": 4, "num_sources": 2, "num_items": 4,
                    },
                    "entries": entries,
                }
            )
        )
        return path

    def test_bench_check_e22_driver_passes(self, tmp_path, capsys):
        from repro.telemetry.benchcheck import measure_primitives

        workload = {"degree": 4, "num_sources": 2, "num_items": 4}
        measured, _ = measure_primitives(workload, 16, "reference")
        path = self._numpy_bench_file(
            tmp_path,
            [
                {
                    "n": 16,
                    "backend": "reference",
                    "seconds": measured["seconds"],
                    "rounds": measured["rounds"],
                    "messages": measured["messages"],
                }
            ],
        )
        assert main(["bench", "check", "--file", str(path)]) == 0
        assert "1/1 entries pass" in capsys.readouterr().out

    def test_bench_check_skips_numpy_entries_without_the_extra(
        self, tmp_path, capsys, monkeypatch
    ):
        # A committed numpy-tier entry must not fail the gate in the
        # dependency-free environment — it is skipped, not measured.
        monkeypatch.setattr(
            "repro.simbackend.numpy_tier_available", lambda: False
        )
        path = self._numpy_bench_file(
            tmp_path,
            [
                {
                    "n": 16,
                    "backend": "numpy",
                    "seconds": 0.01,
                    "rounds": 1,
                    "messages": 1,
                }
            ],
        )
        assert main(["bench", "check", "--file", str(path)]) == 0
        assert "1 skipped" in capsys.readouterr().out

    def test_sweep_quiet_suppresses_progress(self, tmp_path, capsys):
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--serial",
             "--no-store", "--quiet"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "jobs:" not in captured.err
        assert "scenario grid-rounds" in captured.out

    def test_sweep_verbose_emits_structured_events(self, capsys):
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--serial",
             "--no-store", "--verbose"]
        )
        assert code == 0
        err = capsys.readouterr().err
        # Legacy lines and structured events interleave.
        assert "[grid-rounds] 8 jobs: 0 cache hits, 8 to run" in err
        assert "· sweep_end" in err

    def test_sweep_telemetry_writes_jsonl_stream(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--serial",
             "--no-store", "--telemetry", str(stream)]
        )
        assert code == 0
        kinds = [e["event"] for e in read_events(stream)]
        for expected in ("manifest", "sweep_start", "job_end", "run_end"):
            assert expected in kinds
        # The default console still renders the legacy progress lines.
        assert "job 8/8 done" in capsys.readouterr().err

    def test_quiet_and_verbose_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "grid-rounds", "--quiet",
                  "--verbose"])
