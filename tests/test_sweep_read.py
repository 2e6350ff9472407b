"""How a sweep reads the store, and the job key it reads with.

``run_spec`` answers "which jobs hit, and what did they store" with one
key-only ``ResultStore.select`` of the scenario's own keys — never the
whole-store ``keys()`` — so a warm sweep costs the scenario's size, not
the store's. ``Job.key`` is hashed once per job and must still equal
the content hash of the job's identity.
"""

import dataclasses
import pickle

import pytest

from repro.engine import (
    ResultStore,
    ScenarioSpec,
    content_hash,
    expand_jobs,
    run_spec,
    run_suite,
)
from repro.engine.jobs import Job
from repro.engine.suites import SUITES
from repro.telemetry import Telemetry


def tiny_spec(name="tiny", ns=(8, 10)):
    return ScenarioSpec(
        name=name,
        family="gnp",
        algorithms=("moat", "distributed"),
        grid={"n": list(ns), "p": 0.4, "k": 2, "component_size": 2},
        seeds=1,
    )


def _no_keys(self):
    raise AssertionError("run_spec read every key of the store")


def _sweep_counters(spec, store):
    bus = Telemetry()
    stats = run_spec(spec, store=store, parallel=False, telemetry=bus)
    counters = bus.metrics.snapshot()["counters"]
    bus.close()
    return stats, {
        name: counters.get(name, 0)
        for name in ("engine.cache.hit", "engine.cache.miss",
                     "engine.store.rows_read")
    }


class TestRunSpecRead:
    @pytest.mark.parametrize("index", [True, False])
    def test_never_reads_every_key(self, tmp_path, monkeypatch, index):
        monkeypatch.setattr(ResultStore, "keys", _no_keys)
        spec = tiny_spec()
        store = ResultStore(tmp_path / "r.jsonl", index=index)
        cold = run_spec(spec, store=store, parallel=False)
        warm = run_spec(spec, store=store, parallel=False)
        assert (cold.executed, cold.cached) == (4, 0)
        assert (warm.executed, warm.cached) == (0, 4)
        assert [r["key"] for r in warm.records] \
            == [r["key"] for r in cold.records]

    @pytest.mark.parametrize("index", [True, False])
    def test_one_key_only_select_per_scenario(self, tmp_path, monkeypatch,
                                              index):
        calls = []
        original = ResultStore.select

        def spy(self, *args, **kwargs):
            calls.append((args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "select", spy)
        specs = [tiny_spec(), tiny_spec(name="tiny2", ns=(9,))]
        store = ResultStore(tmp_path / "r.jsonl", index=index)
        for _ in range(2):  # cold, then warm
            calls.clear()
            run_suite(specs, store=store, parallel=False)
            assert len(calls) == len(specs)
            for (args, kwargs), spec in zip(calls, specs):
                assert args == () and set(kwargs) == {"keys"}
                assert sorted(kwargs["keys"]) \
                    == sorted(job.key for job in expand_jobs(spec))

    def test_indexed_and_scanning_stores_agree(self, tmp_path):
        path = tmp_path / "r.jsonl"
        run_spec(tiny_spec(), store=ResultStore(path, index=False),
                 parallel=False)
        grown = tiny_spec(ns=(8, 10, 12))
        for step, spec in enumerate((tiny_spec(), grown)):
            copies = {}
            for index in (True, False):
                copy = tmp_path / f"copy-{step}-{index}.jsonl"
                copy.write_bytes(path.read_bytes())
                copies[index] = _sweep_counters(
                    spec, ResultStore(copy, index=index)
                )
            (via_index, counted_index), (via_scan, counted_scan) = (
                copies[True], copies[False]
            )
            assert counted_index == counted_scan
            assert (via_index.scenario, via_index.executed, via_index.cached) \
                == (via_scan.scenario, via_scan.executed, via_scan.cached)
            assert [r["key"] for r in via_index.records] \
                == [r["key"] for r in via_scan.records]
            if spec is grown:
                assert (via_index.executed, via_index.cached) == (2, 4)
                assert counted_index["engine.store.rows_read"] == 4
            else:
                # A pure read-back: records are byte-identical.
                assert via_index.records == via_scan.records
                assert counted_index == {"engine.cache.hit": 4,
                                         "engine.cache.miss": 0,
                                         "engine.store.rows_read": 4}

    @pytest.mark.parametrize("index", [True, False])
    def test_duplicate_rows_return_the_earliest(self, tmp_path, index):
        path = tmp_path / "r.jsonl"
        spec = tiny_spec()
        cold = run_spec(spec, store=ResultStore(path, index=False),
                        parallel=False)
        first = cold.records[1]
        later = dict(first, metrics=dict(first["metrics"], weight=-1))
        ResultStore(path, index=False).append([later])

        warm = run_spec(spec, store=ResultStore(path, index=index),
                        parallel=False)
        assert (warm.executed, warm.cached) == (0, 4)
        assert warm.records[1]["metrics"]["weight"] \
            == first["metrics"]["weight"]


class TestCachedJobKey:
    def test_every_registered_suite_job_keys_its_identity(self):
        for name in SUITES.names():
            for spec in SUITES.get(name).scenarios:
                for job in expand_jobs(spec):
                    assert job.key == content_hash(job.identity())

    def test_round_trip_replace_and_pickle(self):
        job = expand_jobs(tiny_spec())[0]
        key = job.key
        assert Job.from_dict(job.to_dict()).key == key
        moved = dataclasses.replace(job, seed_index=job.seed_index + 1)
        assert moved.key != key
        assert moved.key == content_hash(moved.identity())
        assert job.key == key  # the original is untouched
        restored = pickle.loads(pickle.dumps(job))
        assert restored.key == key
        assert restored == job
