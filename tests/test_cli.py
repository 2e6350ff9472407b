"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_backend_arg, parse_network_arg


class TestSolve:
    def test_default_algorithm(self, capsys):
        assert main(["solve", "--n", "12", "--k", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "weight" in out
        assert "rounds" in out

    def test_exact_flag(self, capsys):
        code = main(
            ["solve", "--n", "10", "--k", "2", "--seed", "2", "--exact"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimum" in out
        assert "ratio" in out

    @pytest.mark.parametrize(
        "algorithm",
        ["moat", "rounded", "distributed", "randomized", "spanner"],
    )
    def test_each_algorithm(self, algorithm, capsys):
        code = main(
            [
                "solve",
                "--n", "10",
                "--k", "2",
                "--seed", "3",
                "--algorithm", algorithm,
            ]
        )
        assert code == 0


class TestCompare:
    def test_prints_all_rows(self, capsys):
        assert main(["compare", "--n", "10", "--k", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("moat", "distributed", "randomized", "khan", "spanner"):
            assert name in out


class TestGadget:
    def test_ic_gadget(self, capsys):
        assert main(["gadget", "--kind", "ic", "--universe", "5"]) == 0
        out = capsys.readouterr().out
        assert "dichotomy : holds" in out

    def test_cr_gadget_intersecting(self, capsys):
        code = main(
            ["gadget", "--kind", "cr", "--universe", "5", "--intersecting"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "A∩B≠∅     : True" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweep:
    def test_list_scenarios(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "gnp-core" in out and "grid-rounds" in out

    def test_sweep_persists_then_hits_cache(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        args = ["sweep", "--scenario", "grid-rounds", "--store", store]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed=   8 cached=   0" in out
        assert "scenario: grid-rounds" in out
        # An identical re-run executes nothing: every row comes from cache.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed=   0 cached=   8" in out
        with open(store) as handle:
            assert len(handle.readlines()) == 8

    def test_sweep_parallel_workers(self, tmp_path, capsys):
        # Default mode (no --serial) goes through worker processes.
        store = str(tmp_path / "results.jsonl")
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--store", store,
             "--workers", "2"]
        )
        assert code == 0
        assert "executed=   8" in capsys.readouterr().out

    def test_unknown_scenario_errors(self, capsys):
        assert main(["sweep", "--scenario", "nope", "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nope'" in err

    def test_invalid_spec_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["batch", str(bad), "--no-store"]) == 2
        assert "invalid spec file" in capsys.readouterr().err


class TestBatch:
    def test_batch_runs_spec_file(self, tmp_path, capsys):
        spec = {
            "name": "adhoc",
            "family": "grid",
            "algorithms": ["moat"],
            "grid": {"rows": 3, "cols": 3, "k": 2, "component_size": 2},
            "seeds": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        store = str(tmp_path / "results.jsonl")
        code = main(
            ["batch", str(spec_path), "--store", store, "--serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adhoc" in out and "executed=   2" in out


class TestNetworkOptions:
    def test_parse_name_only(self):
        assert parse_network_arg("lossy") == {"model": "lossy", "params": {}}

    def test_parse_key_values(self):
        spec = parse_network_arg("lossy:drop_p=0.2,retransmit=2")
        assert spec == {
            "model": "lossy",
            "params": {"drop_p": 0.2, "retransmit": 2},
        }

    def test_parse_bracketed_list_value(self):
        spec = parse_network_arg("crash:victims=[0,1],at_round=2")
        assert spec["params"] == {"victims": [0, 1], "at_round": 2}

    def test_parse_json_object(self):
        text = '{"model": "delay", "params": {"max_delay": 3}}'
        assert parse_network_arg(text)["params"] == {"max_delay": 3}

    def test_parse_rejects_bare_parameter(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_network_arg("lossy:0.2")

    def test_list_shows_network_axis(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "gnp-adversity" in out
        assert "delay" in out and "lossy" in out

    def test_sweep_network_override_distinct_cache_rows(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        args = [
            "sweep", "--scenario", "grid-rounds", "--store", store, "--serial",
            "--network", "reliable",
            "--network", "delay:max_delay=2",
            "--network", "lossy:drop_p=0.1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed=  24 cached=   0" in out  # 8 base jobs × 3 networks
        with open(store) as handle:
            rows = [json.loads(line) for line in handle]
        assert len({row["key"] for row in rows}) == 24
        assert {row["network_model"] for row in rows} == {
            "reliable", "delay", "lossy",
        }

    @pytest.mark.parametrize(
        "network",
        ["lossy:oops", '{"model": "lossy", "params": [1]}'],
    )
    def test_invalid_network_errors(self, capsys, network):
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--no-store",
             "--network", network]
        )
        assert code == 2
        assert "invalid --network" in capsys.readouterr().err

    def test_report_network_filter(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        main(["sweep", "--scenario", "grid-rounds", "--store", store,
              "--serial", "--network", "delay:max_delay=2"])
        capsys.readouterr()
        assert main(["report", "--store", store, "--network", "delay"]) == 0
        assert "delay" in capsys.readouterr().out
        assert main(["report", "--store", store, "--network", "crash"]) == 0
        assert "no records" in capsys.readouterr().out


class TestBackendOptions:
    def test_parse_name_only(self):
        assert parse_backend_arg("flatarray") == {
            "name": "flatarray", "params": {},
        }

    def test_parse_key_values(self):
        spec = parse_backend_arg("auto:threshold=128")
        assert spec == {"name": "auto", "params": {"threshold": 128}}

    def test_parse_json_object(self):
        text = '{"name": "auto", "params": {"numpy_threshold": 2}}'
        assert parse_backend_arg(text)["params"] == {"numpy_threshold": 2}

    def test_parse_rejects_bare_parameter(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_backend_arg("auto:4")

    def test_parse_rejects_misplaced_json_keys(self):
        # Parameters nested one level too shallow must error, not
        # silently run the engine with defaults.
        with pytest.raises(ValueError, match="unexpected backend spec keys"):
            parse_backend_arg('{"name": "auto", "threshold": 8}')
        with pytest.raises(ValueError, match="unexpected network spec keys"):
            parse_network_arg('{"model": "lossy", "drop_p": 0.5}')

    def test_sweep_backend_override_distinct_cache_rows(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        args = [
            "sweep", "--scenario", "grid-rounds", "--store", store, "--serial",
            "--backend", "reference",
            "--backend", "flatarray",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed=  16 cached=   0" in out  # 8 base jobs × 2 backends
        with open(store) as handle:
            rows = [json.loads(line) for line in handle]
        assert len({row["key"] for row in rows}) == 16
        assert {row["backend_name"] for row in rows} == {
            "reference", "flatarray",
        }

    @pytest.mark.parametrize(
        "backend",
        ["auto:oops", '{"name": "auto", "params": 5}'],
    )
    def test_invalid_backend_errors(self, capsys, backend):
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--no-store",
             "--backend", backend]
        )
        assert code == 2
        assert "invalid --backend" in capsys.readouterr().err

    def test_removed_sharded_backend_errors(self, capsys):
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--no-store",
             "--backend", "sharded"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --backend" in err and "'sharded'" in err
        assert "'reference'" in err and "'flatarray'" in err
        assert "'auto'" in err

    def test_unknown_backend_errors(self, capsys):
        code = main(
            ["sweep", "--scenario", "grid-rounds", "--no-store",
             "--backend", "quantum"]
        )
        assert code == 2
        assert "invalid --backend" in capsys.readouterr().err

    def test_report_backend_filter(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        main(["sweep", "--scenario", "grid-rounds", "--store", store,
              "--serial", "--backend", "flatarray"])
        capsys.readouterr()
        assert main(["report", "--store", store, "--backend", "flatarray"]) == 0
        assert "flatarray" in capsys.readouterr().out
        assert main(["report", "--store", store, "--backend", "sharded"]) == 0
        assert "no records" in capsys.readouterr().out

    def test_report_reads_records_of_a_removed_backend(self, tmp_path, capsys):
        # Stores written while the multiprocess ``sharded`` engine
        # existed stay readable: reporting never builds a backend.
        store = tmp_path / "results.jsonl"
        main(["sweep", "--scenario", "grid-rounds", "--store", str(store),
              "--serial", "--backend", "flatarray"])
        capsys.readouterr()
        rows = [json.loads(line) for line in store.read_text().splitlines()]
        for row in rows:
            row["backend"] = {"name": "sharded", "params": {"num_shards": 2}}
            row["backend_name"] = "sharded"
        store.write_text("".join(json.dumps(row) + "\n" for row in rows))
        for idx in tmp_path.glob("*.idx"):
            idx.unlink()
        assert main(["report", "--store", str(store), "--backend", "sharded"]) == 0
        out = capsys.readouterr().out
        assert "sharded" in out and "no records" not in out

    def test_sweep_emits_progress_to_stderr(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert main(["sweep", "--scenario", "grid-rounds", "--store", store,
                     "--serial"]) == 0
        err = capsys.readouterr().err
        assert "[grid-rounds] 8 jobs: 0 cache hits, 8 to run" in err
        assert "job 8/8 done" in err


class TestReport:
    def test_report_renders_store(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        main(["sweep", "--scenario", "grid-rounds", "--store", store,
              "--serial"])
        capsys.readouterr()
        assert main(["report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "scenario: grid-rounds" in out
        assert "sublinear" in out

    def test_report_scenario_filter(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        main(["sweep", "--scenario", "grid-rounds", "--store", store,
              "--serial"])
        capsys.readouterr()
        assert main(["report", "--store", store,
                     "--scenario", "absent"]) == 0
        assert "no records" in capsys.readouterr().out


class TestProfileCommand:
    def test_report_has_the_instance_build_row(self, capsys):
        code = main([
            "profile", "--scenario", "grid-rounds",
            "--algorithm", "distributed", "--no-store",
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].startswith("== profile: grid-rounds · distributed")
        assert rows[2].split()[0] == "build_instance"


class TestTrace:
    def test_randomized_narrates_its_phases(self, capsys):
        code = main([
            "trace", "summary", "--algorithm", "randomized", "--n", "24",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "regime-detection" in out and "first-stage" in out

    @pytest.mark.parametrize("algorithm", ["moat", "rounded"])
    def test_centralized_solvers_are_refused(self, algorithm, capsys):
        code = main(["trace", "summary", "--algorithm", algorithm])
        assert code == 2
        err = capsys.readouterr().err
        assert "moat and rounded are centralized" in err
