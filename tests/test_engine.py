"""Tests for the experiment engine (registry, jobs, runner, store)."""

import json

import pytest

from repro.engine import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    REGISTRY,
    ResultStore,
    ScenarioSpec,
    aggregate_records,
    build_instance,
    content_hash,
    execute_job,
    expand_grid,
    expand_jobs,
    render_report,
    run_spec,
    run_suite,
)
from repro.engine.jobs import Job


def tiny_spec(**overrides):
    """A spec small enough to execute in-process during tests."""
    fields = dict(
        name="tiny",
        family="gnp",
        algorithms=("moat", "distributed"),
        grid={"n": [8, 10], "p": 0.4, "k": 2, "component_size": 2},
        seeds=1,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestSpecValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            tiny_spec(family="nope")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithms"):
            tiny_spec(algorithms=("moat", "nope"))

    def test_round_trips_through_dict(self):
        spec = tiny_spec(algo_grid={"eps": ["1/2"]}, exact=True)
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_registry_covers_families_and_algorithms(self):
        # The acceptance bar for the default sweep: ≥ 2 graph families
        # and ≥ 3 algorithms across the built-in scenarios.
        specs = REGISTRY.specs()
        assert len({s.family for s in specs}) >= 2
        assert len({a for s in specs for a in s.algorithms}) >= 3


class TestJobExpansion:
    def test_grid_cartesian_product(self):
        grid = expand_grid({"a": [1, 2], "b": [3, 4], "c": 9})
        assert len(grid) == 4
        assert {"a": 1, "b": 4, "c": 9} in grid

    def test_job_count(self):
        spec = tiny_spec(seeds=3, algo_grid={"x": [1, 2]})
        # 2 grid points × 2 algo grid points × 2 algorithms × 3 seeds.
        assert len(expand_jobs(spec)) == 24

    def test_keys_are_stable_and_distinct(self):
        jobs = expand_jobs(tiny_spec())
        keys = [job.key for job in jobs]
        assert len(set(keys)) == len(keys)
        assert keys == [job.key for job in expand_jobs(tiny_spec())]

    def test_content_hash_ignores_key_order(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_instance_shared_across_algorithms(self):
        spec = tiny_spec()
        jobs = expand_jobs(spec)
        moat = next(j for j in jobs if j.algorithm == "moat")
        dist = next(
            j
            for j in jobs
            if j.algorithm == "distributed"
            and j.family_params == moat.family_params
            and j.seed_index == moat.seed_index
        )
        a, b = build_instance(moat), build_instance(dist)
        assert a.graph.nodes == b.graph.nodes
        assert a.graph.edges() == b.graph.edges()
        assert a.labels == b.labels

    def test_graph_shared_across_placement_sweep(self):
        # Sweeping k re-places terminals on the *same* graph.
        j2 = Job("s", "gnp", {"n": 12, "p": 0.4}, 2, 2, "moat")
        j3 = Job("s", "gnp", {"n": 12, "p": 0.4}, 3, 2, "moat")
        a, b = build_instance(j2), build_instance(j3)
        assert a.graph.edges() == b.graph.edges()
        assert a.num_components == 2 and b.num_components == 3


class TestPlacementAxis:
    def test_default_placement_cache_key_and_seeds_pinned(self):
        # Uniform-placement jobs must keep the exact cache keys and
        # derived seeds of pre-placement-axis schemas (v1–v3 stores keep
        # absorbing re-runs). These constants were computed before the
        # placement field existed.
        job = Job("gnp-core", "gnp", {"n": 12, "p": 0.3}, 2, 2, "moat")
        assert job.key == (
            "17d647613802497ccc0eb1712e4becfc8a92a106e4993d6a29a0d307fe7b78fb"
        )
        assert job.graph_seed() == 4256871043532638782
        assert job.placement_seed() == 3595446297050400242
        assert job.algorithm_seed() == 4657064864270727341

    def test_default_placement_omitted_from_identity(self):
        job = Job("s", "gnp", {"n": 12, "p": 0.4}, 2, 2, "moat")
        assert "placement" not in job.identity()
        swept = Job(
            "s", "gnp", {"n": 12, "p": 0.4}, 2, 2, "moat",
            placement="far_pairs",
        )
        assert swept.identity()["placement"] == "far_pairs"
        assert swept.key != job.key
        assert swept.placement_seed() != job.placement_seed()
        # The graph stream ignores placement entirely: every strategy
        # re-places terminals on the same graph.
        assert swept.graph_seed() == job.graph_seed()

    def test_unknown_placement_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown terminal placement"):
            Job("s", "gnp", {"n": 12}, 2, 2, "moat", placement="teleport")

    def test_job_round_trips_placement(self):
        job = Job(
            "s", "gnp", {"n": 12, "p": 0.4}, 2, 2, "moat",
            placement="clustered",
        )
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.placement == "clustered"

    def test_spec_placement_grid_validates_and_sweeps(self):
        with pytest.raises(ValueError, match="unknown terminal placements"):
            tiny_spec(grid={"n": 8, "k": 2, "placement": "teleport"})
        spec = tiny_spec(
            grid={
                "n": 8, "p": 0.4, "k": 2, "component_size": 2,
                "placement": ["uniform", "hub_spoke"],
            },
        )
        jobs = expand_jobs(spec)
        assert {job.placement for job in jobs} == {"uniform", "hub_spoke"}
        # Sweeping placements doubles the grid without touching the
        # family parameters routed to the graph builder.
        assert all("placement" not in job.family_params for job in jobs)

    def test_build_instance_dispatches_placement(self):
        base = Job("s", "gnp", {"n": 14, "p": 0.4}, 2, 2, "moat")
        hub = Job(
            "s", "gnp", {"n": 14, "p": 0.4}, 2, 2, "moat",
            placement="hub_spoke",
        )
        a, b = build_instance(base), build_instance(hub)
        assert a.graph.edges() == b.graph.edges()  # same graph stream
        graph = a.graph
        hub_node = max(
            graph.nodes, key=lambda v: (graph.degree(v), repr(v))
        )
        assert hub_node in b.terminals

    def test_record_carries_placement_and_report_grows_column(self):
        spec = tiny_spec(
            algorithms=("moat",),
            grid={
                "n": 8, "p": 0.4, "k": 2, "component_size": 2,
                "placement": ["uniform", "far_pairs"],
            },
        )
        records = [execute_job(job.to_dict()) for job in expand_jobs(spec)]
        assert {r["placement"] for r in records} == {"uniform", "far_pairs"}
        report = render_report(records)
        assert "placement" in report
        assert "far_pairs" in report
        # A uniform-only record set keeps the compact table.
        uniform_only = [r for r in records if r["placement"] == "uniform"]
        assert "placement" not in render_report(uniform_only)


class TestExecuteJob:
    def test_deterministic_record(self):
        job = expand_jobs(tiny_spec())[0].to_dict()
        first, second = execute_job(job), execute_job(job)
        first["metrics"].pop("wall_time")
        second["metrics"].pop("wall_time")
        assert first == second

    def test_unknown_backend_rejected_before_the_build(self, monkeypatch):
        """A stored row with a backend that names no engine still loads,
        but running it fails with the spec's error text and the job key,
        before any instance is built."""
        job = expand_jobs(tiny_spec(algorithms=("moat",)))[0].to_dict()
        job["backend"] = "bogus"
        key = Job.from_dict(job).key

        def no_build(job):
            raise AssertionError("instance built for an unknown backend")

        monkeypatch.setattr("repro.engine.runner.build_instance", no_build)
        with pytest.raises(ValueError) as excinfo:
            execute_job(job)
        message = str(excinfo.value)
        assert f"job {key}: unknown simulation backends ['bogus']" in message
        assert "choose from" in message

    def test_metrics_present(self):
        spec = tiny_spec(algorithms=("distributed",))
        record = execute_job(expand_jobs(spec)[0].to_dict())
        metrics = record["metrics"]
        assert metrics["weight"] >= 0
        assert metrics["rounds"] > 0
        assert metrics["messages"] > 0
        assert metrics["n"] in (8, 10)

    def test_exact_mode_records_ratio(self):
        spec = tiny_spec(
            algorithms=("moat",), grid={"n": 8, "k": 2, "component_size": 2},
            exact=True,
        )
        record = execute_job(expand_jobs(spec)[0].to_dict())
        assert record["metrics"]["ratio"] <= 2.0 + 1e-9

    def test_algo_params_reach_the_solver(self):
        spec = tiny_spec(
            algorithms=("rounded",),
            grid={"n": 10, "k": 2, "component_size": 2},
            algo_grid={"eps": ["1/10", "2"]},
        )
        records = [execute_job(j.to_dict()) for j in expand_jobs(spec)]
        phases = {
            r["algo_params"]["eps"]: r["metrics"]["growth_phases"]
            for r in records
        }
        # Coarser ε ⇒ no more growth phases (Lemma F.1).
        assert phases["1/10"] >= phases["2"]


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert len(store) == 0 and store.keys() == set()
        store.append([{"key": "k1", "scenario": "s", "metrics": {}}])
        store.append([{"key": "k2", "scenario": "t", "metrics": {}}])
        assert store.keys() == {"k1", "k2"}
        assert [r["key"] for r in store.records()] == ["k1", "k2"]
        assert store.select(scenario="t")[0]["key"] == "k2"

    @pytest.mark.parametrize("index", [True, False])
    def test_keys_hold_nothing_the_cyclic_gc_walks(self, tmp_path, index):
        # A young set of 10^5 keys costs the next generation-0
        # collection 7-9 ms, charged to whatever job is running.
        import gc

        store = ResultStore(tmp_path / "r.jsonl", index=index)
        store.append([{"key": f"k{i}", "metrics": {}} for i in range(3)])
        keys = store.keys()
        assert keys == {"k0", "k1", "k2"}
        # The collector walks at most one untracked object, not each key.
        walked = gc.get_referents(keys) if gc.is_tracked(keys) else []
        assert len(walked) <= 1 and not any(map(gc.is_tracked, walked))


class TestRunner:
    def test_rerun_hits_cache_completely(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "r.jsonl")
        first = run_spec(spec, store=store, parallel=False)
        assert first.executed == len(expand_jobs(spec)) and first.cached == 0
        second = run_spec(spec, store=store, parallel=False)
        assert second.executed == 0
        assert second.cached == first.executed
        assert len(second.records) == len(first.records)
        # Nothing was appended by the cached run.
        assert len(store) == first.executed

    def test_partial_cache_runs_only_new_rows(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_spec(tiny_spec(), store=store, parallel=False)
        grown = tiny_spec(grid={"n": [8, 10, 12], "p": 0.4, "k": 2,
                                "component_size": 2})
        stats = run_spec(grown, store=store, parallel=False)
        assert stats.cached == 4  # the original 2×2 grid rows
        assert stats.executed == 2  # only the n=12 rows

    def test_parallel_execution_in_worker_processes(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "r.jsonl")
        stats = run_spec(spec, store=store, parallel=True, max_workers=2)
        assert stats.executed == len(expand_jobs(spec))
        serial = [
            execute_job(j.to_dict()) for j in expand_jobs(spec)
        ]
        for par, ser in zip(stats.records, serial):
            assert par["key"] == ser["key"]
            assert par["metrics"]["weight"] == ser["metrics"]["weight"]

    def test_run_suite_shares_one_store(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        specs = [tiny_spec(), tiny_spec(name="tiny2", family="grid",
                                        grid={"rows": 3, "cols": 3, "k": 2,
                                              "component_size": 2})]
        all_stats = run_suite(specs, store=store, parallel=False)
        assert [s.scenario for s in all_stats] == ["tiny", "tiny2"]
        assert len(store) == sum(s.executed for s in all_stats)


class TestAggregateAndReport:
    @pytest.fixture(scope="class")
    def records(self):
        return run_spec(tiny_spec(), parallel=False).records

    def test_aggregate_rows(self, records):
        rows = aggregate_records(records)
        assert {row.algorithm for row in rows} == {"moat", "distributed"}
        for row in rows:
            assert row.scenario == "tiny"
            assert row.jobs == 2
            assert row.mean_weight > 0
        dist = next(r for r in rows if r.algorithm == "distributed")
        assert dist.mean_rounds > 0

    def test_report_renders(self, records):
        text = render_report(records)
        assert "scenario: tiny" in text
        assert "distributed" in text and "moat" in text
        assert render_report([]) == "no records"


class TestNetworkAxis:
    NETWORKS = [
        "reliable",
        {"model": "delay", "params": {"max_delay": 3}},
        {"model": "lossy", "params": {"drop_p": 0.2, "retransmit": 1}},
    ]

    def test_default_network_keeps_v1_identity(self):
        job = expand_jobs(tiny_spec())[0]
        # Schema-v1 cache keys and derived seeds depended on exactly
        # these fields; the default network must not perturb them.
        assert "network" not in job.identity()
        assert set(job.identity()) == {
            "scenario", "family", "family_params", "k", "component_size",
            "algorithm", "algo_params", "seed_index", "exact",
        }

    def test_each_network_gets_its_own_cache_key(self):
        spec = tiny_spec(network=self.NETWORKS)
        jobs = expand_jobs(spec)
        assert len(jobs) == 3 * len(expand_jobs(tiny_spec()))
        keys = {job.key for job in jobs}
        assert len(keys) == len(jobs)
        by_network = {job.network["model"] for job in jobs}
        assert by_network == {"reliable", "delay", "lossy"}

    def test_algorithm_seed_is_network_independent(self):
        spec = tiny_spec(network=self.NETWORKS, algorithms=("moat",))
        jobs = [j for j in expand_jobs(spec) if j.seed_index == 0][:3]
        seeds = {j.algorithm_seed() for j in jobs}
        assert len(seeds) == 1  # same coins on every channel

    def test_spec_round_trips_with_network(self):
        spec = tiny_spec(network=self.NETWORKS)
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.network_names == ("reliable", "delay", "lossy")

    def test_unknown_network_model_rejected(self):
        with pytest.raises(ValueError, match="unknown network models"):
            tiny_spec(network="warp-drive")

    def test_bad_network_params_rejected_at_construction(self):
        # Mistyped parameters must fail when the spec is built, not as a
        # crashed worker halfway through a sweep.
        with pytest.raises(ValueError, match="bad parameters"):
            tiny_spec(network={"model": "lossy", "params": {"dropp": 0.1}})

    def test_sweep_crosses_networks_with_distinct_cached_rows(self, tmp_path):
        spec = tiny_spec(
            network=self.NETWORKS,
            algorithms=("distributed",),
            grid={"n": 8, "p": 0.4, "k": 2, "component_size": 2},
        )
        store = ResultStore(tmp_path / "r.jsonl")
        stats = run_spec(spec, store=store, parallel=False)
        assert stats.executed == 3
        models = {r["network_model"] for r in stats.records}
        assert models == {"reliable", "delay", "lossy"}
        # Re-running hits the cache for every network condition.
        again = run_spec(spec, store=store, parallel=False)
        assert again.executed == 0 and again.cached == 3

    def test_adverse_records_carry_emulated_rounds(self):
        spec = tiny_spec(
            network=[{"model": "delay", "params": {"max_delay": 4}}],
            algorithms=("distributed",),
            grid={"n": 8, "p": 0.4, "k": 2, "component_size": 2},
        )
        record = execute_job(expand_jobs(spec)[0].to_dict())
        metrics = record["metrics"]
        assert metrics["emulated_rounds"] == 4 * metrics["rounds"]

    def test_reliable_records_have_no_emulated_rounds(self):
        record = execute_job(expand_jobs(tiny_spec())[0].to_dict())
        assert "emulated_rounds" not in record["metrics"]
        assert record["network_model"] == "reliable"

    def test_report_grows_network_column_only_when_adverse(self):
        spec = tiny_spec(
            network=self.NETWORKS,
            algorithms=("distributed",),
            grid={"n": 8, "p": 0.4, "k": 2, "component_size": 2},
        )
        adverse = render_report(run_spec(spec, parallel=False).records)
        assert "network" in adverse and "lossy" in adverse
        clean = render_report(run_spec(tiny_spec(), parallel=False).records)
        assert "network" not in clean

    def test_builtin_adversity_scenario_registered(self):
        spec = REGISTRY.get("gnp-adversity")
        assert len(spec.network_names) >= 3

    def test_pre_netmodel_metrics_regression(self):
        # Metrics snapshot taken before the netmodel subsystem existed:
        # on the default channel, job seeds, instances, and results must
        # reproduce exactly.
        spec = ScenarioSpec(
            name="t",
            family="gnp",
            algorithms=("distributed", "sublinear"),
            grid={"n": 10, "p": 0.4, "k": 2, "component_size": 2},
            seeds=1,
        )
        by_algo = {
            job.algorithm: execute_job(job.to_dict())["metrics"]
            for job in expand_jobs(spec)
        }
        assert by_algo["distributed"]["rounds"] == 54
        assert by_algo["distributed"]["messages"] == 307
        assert by_algo["distributed"]["weight"] == 18
        assert by_algo["sublinear"]["rounds"] == 276
        assert by_algo["sublinear"]["messages"] == 882
        assert by_algo["sublinear"]["weight"] == 18


class TestBackendAxis:
    BACKENDS = [
        "reference",
        "flatarray",
        {"name": "auto", "params": {"threshold": 2}},
    ]

    def test_default_backend_keeps_v2_identity(self):
        job = expand_jobs(tiny_spec())[0]
        # Schema-v2 cache keys depended on exactly these fields; the
        # default reference engine must not perturb them.
        assert "backend" not in job.identity()
        assert set(job.identity()) == {
            "scenario", "family", "family_params", "k", "component_size",
            "algorithm", "algo_params", "seed_index", "exact",
        }

    def test_each_backend_gets_its_own_cache_key(self):
        spec = tiny_spec(backend=self.BACKENDS)
        jobs = expand_jobs(spec)
        assert len(jobs) == 3 * len(expand_jobs(tiny_spec()))
        keys = {job.key for job in jobs}
        assert len(keys) == len(jobs)
        assert {job.backend["name"] for job in jobs} == {
            "reference", "flatarray", "auto",
        }

    def test_algorithm_seed_is_backend_independent(self):
        spec = tiny_spec(backend=self.BACKENDS, algorithms=("moat",))
        jobs = [j for j in expand_jobs(spec) if j.seed_index == 0][:3]
        assert len({j.algorithm_seed() for j in jobs}) == 1

    def test_spec_round_trips_with_backend(self):
        spec = tiny_spec(backend=self.BACKENDS)
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.backend_names == ("reference", "flatarray", "auto")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backends"):
            tiny_spec(backend="warp-core")

    def test_bad_backend_params_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bad parameters"):
            tiny_spec(backend={"name": "auto", "params": {"treshold": 2}})

    def test_sweep_crosses_backends_with_distinct_cached_rows(self, tmp_path):
        spec = tiny_spec(
            backend=["reference", "flatarray"],
            algorithms=("distributed",),
            grid={"n": 8, "p": 0.4, "k": 2, "component_size": 2},
        )
        store = ResultStore(tmp_path / "r.jsonl")
        stats = run_spec(spec, store=store, parallel=False)
        assert stats.executed == 2
        assert {r["backend_name"] for r in stats.records} == {
            "reference", "flatarray",
        }
        # The engine axis never changes ledger-level solver results.
        assert len({r["metrics"]["weight"] for r in stats.records}) == 1
        again = run_spec(spec, store=store, parallel=False)
        assert again.executed == 0 and again.cached == 2

    def test_report_grows_backend_column_only_when_non_default(self):
        spec = tiny_spec(
            backend=["reference", "flatarray"],
            algorithms=("distributed",),
            grid={"n": 8, "p": 0.4, "k": 2, "component_size": 2},
        )
        multi = render_report(run_spec(spec, parallel=False).records)
        assert "backend" in multi and "flatarray" in multi
        clean = render_report(run_spec(tiny_spec(), parallel=False).records)
        assert "backend" not in clean


class TestRunnerProgress:
    def test_progress_lines_emitted(self, tmp_path):
        spec = tiny_spec(algorithms=("moat",), seeds=1)
        store = ResultStore(tmp_path / "r.jsonl")
        lines = []
        stats = run_spec(spec, store=store, parallel=False, log=lines.append)
        assert stats.executed == 2
        # One header line plus one completion line per executed job.
        assert lines[0] == "[tiny] 2 jobs: 0 cache hits, 2 to run"
        assert lines[1].startswith("[tiny] job 1/2 done: moat")
        assert lines[2].startswith("[tiny] job 2/2 done: moat")

    def test_progress_reports_cache_hits(self, tmp_path):
        spec = tiny_spec(algorithms=("moat",), seeds=1)
        store = ResultStore(tmp_path / "r.jsonl")
        run_spec(spec, store=store, parallel=False)
        lines = []
        run_spec(spec, store=store, parallel=False, log=lines.append)
        assert lines == ["[tiny] 2 jobs: 2 cache hits, 0 to run"]

    def test_silent_by_default(self, capsys, tmp_path):
        run_spec(
            tiny_spec(algorithms=("moat",), seeds=1),
            store=ResultStore(tmp_path / "r.jsonl"),
            parallel=False,
        )
        assert capsys.readouterr().err == ""

    def test_parallel_defaults_to_cpu_count_workers(self, tmp_path):
        # max_workers=None must resolve to os.cpu_count() (not the
        # executor's own default); observable as a successful parallel
        # run with progress for every job.
        lines = []
        spec = tiny_spec(algorithms=("moat",), seeds=1)
        stats = run_spec(
            spec,
            store=ResultStore(tmp_path / "r.jsonl"),
            parallel=True,
            max_workers=None,
            log=lines.append,
        )
        assert stats.executed == 2
        done_lines = [line for line in lines if "done:" in line]
        assert len(done_lines) == 2


class TestStoreSchemaMigration:
    V1_ROW = {
        "key": "v1-row",
        "scenario": "legacy",
        "algorithm": "moat",
        "schema": 1,
        "metrics": {"weight": 3},
    }

    def test_v1_rows_read_as_reliable(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(json.dumps(self.V1_ROW) + "\n")
        store = ResultStore(path)
        (row,) = store.records()
        assert row["network"] == {"model": "reliable", "params": {}}
        assert row["network_model"] == "reliable"

    def test_pre_v3_rows_read_as_reference_backend(self, tmp_path):
        # v1 and v2 rows predate the backend axis: both read back as the
        # reference engine, and the backend filter sees them.
        v2_row = dict(
            self.V1_ROW,
            key="v2-row",
            schema=2,
            network={"model": "lossy", "params": {"drop_p": 0.1}},
            network_model="lossy",
        )
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps(self.V1_ROW) + "\n" + json.dumps(v2_row) + "\n"
        )
        store = ResultStore(path)
        rows = list(store.records())
        assert all(
            r["backend"] == {"name": "reference", "params": {}} for r in rows
        )
        assert all(r["backend_name"] == "reference" for r in rows)
        assert {r["key"] for r in store.select(backend="reference")} == {
            "v1-row", "v2-row",
        }
        assert store.select(backend="flatarray") == []

    def test_mixed_version_round_trip(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(json.dumps(self.V1_ROW) + "\n")
        store = ResultStore(path)
        store.append(
            [
                {
                    "key": "v2-row",
                    "scenario": "legacy",
                    "algorithm": "moat",
                    "network": {"model": "lossy", "params": {"drop_p": 0.1}},
                    "network_model": "lossy",
                    "metrics": {"weight": 5},
                }
            ]
        )
        reread = ResultStore(path)  # fresh parse of the mixed file
        assert reread.keys() == {"v1-row", "v2-row"}
        assert [r["network_model"] for r in reread.records()] == [
            "reliable", "lossy",
        ]
        # Unstamped appends get the current (bumped) schema version.
        assert [r["schema"] for r in reread.records()] == [1, 5]
        assert [r["key"] for r in reread.select(network="lossy")] == ["v2-row"]
        assert [r["key"] for r in reread.select(network="reliable")] == [
            "v1-row"
        ]


class TestRegistryTables:
    def test_algorithm_specs_carry_runners(self):
        for name, spec in ALGORITHMS.items():
            assert spec.name == name
            assert callable(spec.run)

    def test_families_build_graphs(self):
        import random

        for name, family in GRAPH_FAMILIES.items():
            graph = family.build(random.Random(0))
            assert graph.num_nodes > 0, name
