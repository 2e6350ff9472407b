"""End-to-end solver benchmark with a per-layer traced mode.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload solvers-n256 --seed 0 --seconds 25 --trace 0

Each workload (``perfbench/jobsets.py``) is a fixed list of engine jobs.
One *pass* runs the list cold, then warm:

* cold: per scenario, ``ResultStore.keys()``, then every job through
  ``repro.engine.runner.execute_job`` (each call timed on its own),
  then one ``ResultStore.append`` of the records; this is the path
  ``run_spec`` takes for jobs the store lacks;
* warm: ``repro.engine.runner.run_suite`` over the same scenarios,
  serially, on a fresh ``ResultStore`` object; every job is a cache hit.

Every pass starts from a fresh copy of the set-up store. The run
repeats passes for ``--seconds`` (at least three) and reports medians.
Times are reference seconds: wall seconds scaled to a fixed host speed
(``perfbench/hostclock.py``); only the import share of ``setup_s`` is
plain wall time.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the run makes a warm-up, a traced and an untraced pass and prints the
per-layer metrics (``perfbench/tracer.py``), writing the spans to
``.perfbench/spans/``. Either way the table of metrics with units comes
first and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

A job fails if it raises (``execute_job`` asserts feasibility), if a
weight/rounds/messages column differs from its pin in
``perfbench/pins.json`` (taken on the default seed), if a later pass or
the warm read-back differs from the first cold pass, or if it is missing
from the warm read-back. ``--write-pins`` re-takes the pins.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from hostclock import HostClock

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
PINS = BENCH_DIR / "pins.json"
SCRATCH = ROOT / ".perfbench"

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fewest passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3
#: Warm read-backs repeat within one pass at least this many times and
#: until this many seconds are spent.
WARM_MIN_REPEATS = 2
WARM_MIN_SECONDS = 0.5
#: The exact columns pinned per job.
EXACT_COLUMNS = ("weight", "rounds", "messages")


class BenchError(RuntimeError):
    """The benchmark cannot measure what it claims to (exit code 2)."""


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"repro imported from {repro.__file__}, not {src}")


def exact_columns(record: dict) -> list:
    metrics = record["metrics"]
    return [metrics.get(column) for column in EXACT_COLUMNS]


# -- set-up -------------------------------------------------------------------


class Setup:
    """A workload's job list, warmed-up program state and base store."""

    def __init__(self, workload, seed: int, store_path: Path) -> None:
        from repro.engine import runner
        from repro.engine.algorithms import ALGORITHMS
        from repro.engine.jobs import Job, expand_jobs
        from repro.engine.store import ResultStore
        from repro.engine.storebench import build_store
        from repro.perf import make_ledger_run
        from tracer import ledger_tier

        self.specs = workload.specs(seed)
        self.jobs = [(spec, expand_jobs(spec)) for spec in self.specs]
        self.size = sum(len(jobs) for _, jobs in self.jobs)
        # Tier guard, which also warms the tiers' lazy state (the numpy
        # tier imports its kernels on first use): every distinct graph a
        # ledger-taking solver runs on must get the workload's tier.
        checked = set()
        for _, jobs in self.jobs:
            for job in jobs:
                ident = (job.family, repr(job.family_params), job.seed_index)
                if not ALGORITHMS[job.algorithm].accepts_run or ident in checked:
                    continue
                checked.add(ident)
                graph = runner.build_instance(job).graph
                built = ledger_tier(make_ledger_run(job.backend, graph))
                wanted = workload.tier(graph.num_nodes)
                if built != wanted:
                    raise BenchError(
                        f"{workload.name}: backend {job.backend['name']} built "
                        f"the {built} ledger for n={graph.num_nodes}, "
                        f"expected {wanted} (is the numpy extra installed?)"
                    )
        # Warm-up: each solver once on a tiny instance, with the exact
        # optimum where the workload asks for it.
        exact = any(spec.exact for spec in self.specs)
        for spec in self.specs:
            for algorithm in spec.algorithms:
                runner.execute_job(Job(
                    scenario="perfbench-warmup", family="gnp",
                    family_params={"n": 10, "p": 0.4}, k=2, component_size=2,
                    algorithm=algorithm, backend=spec.backend[0], exact=exact,
                ).to_dict())
        self.store_path = store_path
        if workload.history_rows:
            build_store(store_path, workload.history_rows, seed)
            ResultStore(store_path).refresh()  # build the sidecar index


def timed_setups(workload, seed: int, workdir: Path, repeats: int,
                 clock: HostClock):
    """``repeats`` set-ups; returns the last and the median seconds."""
    durations = []
    setup = None
    for index in range(repeats):
        if setup is not None:
            remove_store(setup.store_path)
        clock.probe(force=True)
        started = time.perf_counter()
        setup = Setup(workload, seed, workdir / f"base-{index}.jsonl")
        ended = time.perf_counter()
        clock.probe(force=True)
        durations.append(clock.seconds(started, ended))
    return setup, statistics.median(durations)


def remove_store(path: Path) -> None:
    for file in (path, path.with_name(path.name + ".idx")):
        file.unlink(missing_ok=True)


def fresh_store(setup: Setup, path: Path) -> Path:
    """A copy of the set-up store (history and index) at ``path``."""
    remove_store(path)
    base = setup.store_path
    for source, target in (
        (base, path),
        (base.with_name(base.name + ".idx"), path.with_name(path.name + ".idx")),
    ):
        if source.exists():
            shutil.copyfile(source, target)
    return path


# -- one pass -----------------------------------------------------------------


class Checker:
    """Counts attempted and failed jobs against pins and the first pass."""

    def __init__(self, pins) -> None:
        self.pins = pins
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, job_key: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{job_key[:16]}: {why}")

    def cold(self, job, record) -> None:
        columns = exact_columns(record)
        if self.pins is not None:
            pinned = self.pins.get(job.key[:16])
            if pinned != columns:
                self.fail(job.key, f"pinned {pinned}, got {columns}")
                return
        first = self.first.setdefault(job.key, columns)
        if first != columns:
            self.fail(job.key, f"first pass {first}, now {columns}")


def run_pass(setup: Setup, path: Path, checker: Checker, clock: HostClock,
             tracer=None, warm_repeats=None):
    """One cold pass and its warm read-backs.

    Returns reference seconds per job (``jobs``: key -> (solver,
    seconds)), for the cold pass (``cold_s``) and per warm read-back
    (``warm``), plus the raw timed wall seconds of the pass (``wall_s``)
    and of its warm read-backs (``warm_wall_s``), and the cold records.
    """
    from repro.engine import runner
    from repro.engine.store import ResultStore

    store = ResultStore(fresh_store(setup, path))
    jobs_timed = []   # (key, algorithm, start, end) per execute_job call
    store_timed = []  # (start, end) per keys() / append()
    records = []
    gc.collect()
    for _, jobs in setup.jobs:
        clock.probe()
        started = time.perf_counter()
        cached = store.keys()
        store_timed.append((started, time.perf_counter()))
        batch = []
        for job in jobs:
            checker.attempted += 1
            if tracer is not None:
                tracer.counts["engine.cache.jobs"] += 1
                tracer.counts["engine.cache.hits"] += job.key in cached
            if job.key in cached:
                checker.fail(job.key, "already in a fresh store")
                continue
            if tracer is not None:
                tracer.start_job(checker.attempted)
            payload = job.to_dict()
            clock.probe()
            started = time.perf_counter()
            try:
                record = runner.execute_job(payload)
            except Exception as exc:  # a failed job, not a failed run
                checker.fail(job.key, repr(exc))
                continue
            finally:
                jobs_timed.append(
                    (job.key, job.algorithm, started, time.perf_counter())
                )
            checker.cold(job, record)
            batch.append(record)
        records.extend(batch)
        clock.probe()
        started = time.perf_counter()
        store.append(batch)
        store_timed.append((started, time.perf_counter()))

    if tracer is not None:
        tracer.start_job("warm")
    warm_timed = []
    while True:
        clock.probe()
        started = time.perf_counter()
        stats = runner.run_suite(
            setup.specs, store=ResultStore(path), parallel=False
        )
        warm_timed.append((started, time.perf_counter()))
        for sweep in stats:
            checker.attempted += sweep.total
            if sweep.executed:
                checker.fail(sweep.scenario, f"{sweep.executed} warm misses")
            for record in sweep.records:
                if checker.first.get(record["key"]) != exact_columns(record):
                    checker.fail(record["key"], "warm read-back differs")
        if warm_repeats is not None:
            if len(warm_timed) >= warm_repeats:
                break
        elif (
            len(warm_timed) >= WARM_MIN_REPEATS
            and sum(end - start for start, end in warm_timed) >= WARM_MIN_SECONDS
        ):
            break
    clock.probe(force=True)

    cold_timed = [(start, end) for _, _, start, end in jobs_timed] + store_timed
    return {
        "jobs": {
            key: (algorithm, clock.seconds(start, end))
            for key, algorithm, start, end in jobs_timed
        },
        "cold_s": sum(clock.seconds(start, end) for start, end in cold_timed),
        "warm": [clock.seconds(start, end) for start, end in warm_timed],
        "wall_s": sum(
            end - start for start, end in cold_timed + warm_timed
        ),
        "warm_wall_s": sum(end - start for start, end in warm_timed),
        "records": records,
        "size": setup.size,
    }


# -- metrics ------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s: float) -> dict:
    from jobsets import SOLVERS

    # Each job's median over the passes, summed per solver: a slow
    # moment spoils one job of one pass, not the solver's whole figure.
    job_s = Counter()
    for key, (algorithm, _) in passes[0]["jobs"].items():
        job_s[algorithm] += statistics.median(
            p["jobs"][key][1] for p in passes if key in p["jobs"]
        )
    out = {f"job_s.{alg}": (job_s[alg], "s") for alg in SOLVERS}
    out["cold_jobs_per_s"] = (
        statistics.median(p["size"] / p["cold_s"] for p in passes), "jobs/s"
    )
    out["warm_jobs_per_s"] = (
        statistics.median(p["size"] / w for p in passes for w in p["warm"]),
        "jobs/s",
    )
    out["setup_s"] = (setup_s, "s")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return out


def per_layer(tracer, traced, untraced) -> dict:
    from jobsets import SOLVERS
    from tracer import (
        NP_KERNELS, SHARE_LAYERS, root_time, self_time_by_prefix, span_table,
    )

    spans = tracer.spans
    table = span_table(spans)
    counts = tracer.counts

    def row(name, field):
        return table[name][field] if name in table else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("workloads.build_instance.calls", row("workloads.build_instance", "calls"), "count")
    put("workloads.build_instance.s", row("workloads.build_instance", "s"), "s")
    dijkstra_calls = row("model.dijkstra", "calls")
    put("model.dijkstra.calls", dijkstra_calls, "count")
    put("model.dijkstra.self_s", row("model.dijkstra", "self_s"), "s")
    put(
        "model.dijkstra.distinct_ratio",
        len(tracer.sssp) / dijkstra_calls if dijkstra_calls else 0.0, "ratio",
    )
    for method in ("all_pairs_distances", "shortest_path", "ball"):
        put(f"model.{method}.calls", row(f"model.{method}", "calls"), "count")
        put(f"model.{method}.s", row(f"model.{method}", "s"), "s")
    put("model.shortest_path_diameter.s", row("model.shortest_path_diameter", "s"), "s")
    put(
        "model.min_hop_shortest_path_hops.self_s",
        row("model.min_hop_shortest_path_hops", "self_s"), "s",
    )
    put("model.self_s", self_time_by_prefix(spans, ("model.",)), "s")
    for primitive in (
        "build_bfs_tree", "bellman_ford", "broadcast_items", "upcast_items",
        "convergecast_aggregate", "pipelined_filtered_upcast",
    ):
        put(f"congest.{primitive}.calls", row(f"congest.{primitive}", "calls"), "count")
        put(f"congest.{primitive}.self_s", row(f"congest.{primitive}", "self_s"), "s")
    records = traced["records"]
    put("congest.rounds", sum(r["metrics"].get("rounds", 0) for r in records), "rounds")
    put("congest.messages", sum(r["metrics"].get("messages", 0) for r in records), "messages")
    put("perf.make_ledger_run.s", row("perf.make_ledger_run", "s"), "s")
    for tier in ("reference", "flatarray", "numpy"):
        put(f"perf.ledger.{tier}.runs", counts[f"perf.ledger.{tier}.runs"], "count")
    kernel_calls = 0
    for kernel in NP_KERNELS:
        name = f"perf.npkernels.{kernel}"
        kernel_calls += row(name, "calls")
        put(f"{name}.calls", row(name, "calls"), "count")
        put(f"{name}.self_s", row(name, "self_s"), "s")
    declines = counts["perf.npkernels.bellman_ford_numpy.declines"]
    put("perf.npkernels.bellman_ford_numpy.declines", declines, "count")
    put(
        "perf.npkernels.accept_ratio",
        (kernel_calls - declines) / kernel_calls if kernel_calls else 0.0,
        "ratio",
    )
    for alg in SOLVERS:
        put(f"core.{alg}.self_s", row(f"core.{alg}", "self_s"), "s")
    for name in (
        "core.rounded_moat_growing", "core.fast_pruning",
        "randomized.build_embedding", "randomized.first_stage_selection",
        "randomized.build_reduced_instance", "baselines.greedy_spanner",
    ):
        put(f"{name}.s", row(name, "s"), "s")
    put("engine.expand_jobs.s", row("engine.expand_jobs", "s"), "s")
    put("engine.execute_job.s", row("engine.execute_job", "s"), "s")
    put("engine.execute_job.self_s", row("engine.execute_job", "self_s"), "s")
    put("engine.run_spec.self_s", row("engine.run_spec", "self_s"), "s")
    put("engine.store.keys.calls", row("engine.store.keys", "calls"), "count")
    put("engine.store.keys.s", row("engine.store.keys", "s"), "s")
    put("engine.store.select.s", row("engine.store.select", "s"), "s")
    put("engine.store.select.rows", counts["engine.store.select.rows"], "count")
    put("engine.store.append.s", row("engine.store.append", "s"), "s")
    put("engine.store.append.rows", counts["engine.store.append.rows"], "count")
    put("engine.store.refresh.s", row("engine.store.refresh", "s"), "s")
    looked_up = counts["engine.cache.jobs"]
    put(
        "engine.store.hit_ratio",
        counts["engine.cache.hits"] / looked_up if looked_up else 0.0, "ratio",
    )
    traced_s = traced["wall_s"]
    unattributed = traced_s - root_time(spans)
    put("unattributed_s", unattributed, "s")
    put(
        "trace.overhead_ratio",
        (traced["cold_s"] + sum(traced["warm"]))
        / (untraced["cold_s"] + sum(untraced["warm"])),
        "ratio",
    )
    for layer, prefixes in SHARE_LAYERS.items():
        put(f"share.{layer}", self_time_by_prefix(spans, prefixes) / traced_s, "ratio")
    put("share.unattributed", unattributed / traced_s, "ratio")
    put(
        "share.warm.engine",
        self_time_by_prefix(spans, ("engine.",), job="warm")
        / traced["warm_wall_s"],
        "ratio",
    )
    return out


def emit(result: dict, metrics: dict) -> None:
    """The metric table, then the JSON result as the last line."""
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    print(json.dumps(result))


# -- entry points -------------------------------------------------------------


def measure(args, workload, workdir: Path) -> None:
    import tracer as tracing
    from jobsets import DEFAULT_SEED

    # Plain wall seconds: the imports run before the first speed sample,
    # and scaling them by it spread ``setup_s`` 0.43 over ten seeds on
    # solvers-n256, against 0.18-0.21 unscaled.
    import_s = time.perf_counter() - STARTED
    pins = None
    if args.seed == DEFAULT_SEED:
        pins = json.loads(PINS.read_text())["workloads"][workload.name]
    checker = Checker(pins)
    clock = HostClock()
    repeats = 1 if args.trace else SETUP_REPEATS
    setup, setup_s = timed_setups(workload, args.seed, workdir, repeats, clock)
    pass_path = workdir / "pass.jsonl"
    if args.trace:
        # A warm-up pass, the traced pass, then the untraced pass that
        # ``trace.overhead_ratio`` compares against; all three make the
        # same number of warm read-backs.
        warm_repeats = len(run_pass(setup, pass_path, checker, clock)["warm"])
        live = tracing.install()
        try:
            traced = run_pass(
                setup, pass_path, checker, clock, tracer=live,
                warm_repeats=warm_repeats,
            )
        finally:
            live.uninstall()
        untraced = run_pass(
            setup, pass_path, checker, clock, warm_repeats=warm_repeats
        )
        tracing.write_spans(
            live.spans, SCRATCH / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
        )
        for key in live.counts:
            if key.startswith("tier."):
                _, nodes, tier = key.split(".")
                if tier != workload.tier(int(nodes)):
                    raise BenchError(f"traced pass built the {tier} ledger "
                                     f"for n={nodes}")
        metrics = per_layer(live, traced, untraced)
    else:
        passes = []
        started = time.perf_counter()
        while (
            len(passes) < MIN_PASSES
            or time.perf_counter() - started < args.seconds
        ):
            passes.append(run_pass(setup, pass_path, checker, clock))
        metrics = end_to_end(passes, import_s + setup_s)
    for error in checker.errors:
        print(f"FAILED {error}", file=sys.stderr)
    emit({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }, metrics)


def write_pins(workdir: Path) -> None:
    """Re-take ``pins.json``: one cold pass per workload, default seed."""
    from jobsets import DEFAULT_SEED, WORKLOADS

    pins = {"seed": DEFAULT_SEED, "columns": list(EXACT_COLUMNS), "workloads": {}}
    for name, workload in WORKLOADS.items():
        setup = Setup(workload, DEFAULT_SEED, workdir / f"{name}.jsonl")
        checker = Checker(None)
        result = run_pass(
            setup, workdir / "pass.jsonl", checker, HostClock(), warm_repeats=1
        )
        if checker.failed:
            raise BenchError(f"{name}: {checker.errors}")
        pins["workloads"][name] = {
            record["key"][:16]: exact_columns(record)
            for record in result["records"]
        }
        print(f"{name}: {len(result['records'])} jobs pinned", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    workdir = SCRATCH / f"work-{os.getpid()}"
    try:
        load_program()
        from jobsets import WORKLOADS

        workdir.mkdir(parents=True, exist_ok=True)
        if args.write_pins:
            write_pins(workdir)
            return 0
        if args.workload not in WORKLOADS:
            raise BenchError(
                f"--workload must be one of {sorted(WORKLOADS)}"
            )
        measure(args, WORKLOADS[args.workload], workdir)
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
