"""Parallel batch runner: expand a spec, execute jobs, persist records.

Jobs cross the process boundary as plain dicts (see :meth:`Job.to_dict`), so
the pool workers only need the library importable — no closure pickling. Each
job rebuilds its instance from the registry by name and its derived seeds,
making every record exactly reproducible from its stored configuration.
"""

import gc
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.engine.algorithms import ALGORITHMS
from repro.engine.jobs import Job, expand_jobs
from repro.engine.registry import (
    GRAPH_FAMILIES,
    ScenarioSpec,
    check_backend_names,
)
from repro.engine.store import SCHEMA_VERSION, ResultStore
from repro.exceptions import WorkerCrashError
from repro.model.instance import SteinerForestInstance
from repro.netmodel import build_network_model
from repro.perf import PhaseProfiler, gc_pauses, make_ledger_run, maybe_span
from repro.workloads import place_terminals

def build_instance(job: Job) -> SteinerForestInstance:
    """Rebuild the (algorithm-independent) instance a job runs on."""
    family = GRAPH_FAMILIES[job.family]
    graph = family.build(random.Random(job.graph_seed()), **job.family_params)
    return place_terminals(
        job.placement, graph, job.k, job.component_size,
        random.Random(job.placement_seed()),
    )


def execute_job(job_dict: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one job (worker entry point); returns its JSON-able record.

    Every solver returns one :class:`~repro.engine.algorithms.SolveResult`.
    The job's ``backend`` selects the *ledger engine* for the ledger
    solvers (:func:`repro.perf.make_ledger_run`): ``numpy`` (or a
    large-instance ``auto``) hands the solver a
    :class:`~repro.perf.npkernels.NumpyCongestRun`, whose array kernels
    change wall time but — by the tiers' conformance pin — nothing
    observable: weights, rounds, messages, per-edge traffic, and
    cache-relevant outputs are byte-identical to ``reference``
    (``flatarray`` runs the same code as ``reference``). Like the
    network axis, a non-default backend hashes to its own cache key. A
    backend that names no ledger tier raises ValueError
    before the instance is built (stored rows still load through
    :meth:`Job.from_dict`; only running them is refused).

    With ``job.profile`` set, a :class:`~repro.perf.PhaseProfiler`
    rides along (attached to the ledger of a ledger solver, as
    wall-time spans for the centralized ones) and the record gains a
    ``profile`` field; profiling never changes the computation. Its
    first row, ``build_instance``, times the instance build, which
    ``metrics.wall_time`` (the solve) leaves out; what runs between the
    build and the solver's first phase lands on the unattributed row. A
    numpy-tier ledger's kernel declines, when there are any, ride in
    that field as ``declines`` (reason → count), and the cyclic garbage
    collector's work during the job as ``gc``: collections and pause
    seconds per generation (:func:`repro.perf.gc_pauses`, a
    ``gc.callbacks`` hook registered for this job only).

    The first job of each process (keyed on ``os.getpid()``, so a
    forked worker does it again for its own heap) runs
    ``gc.collect()`` and then ``gc.freeze()``; later jobs do nothing.
    Every object alive at that point (modules, functions, classes, the
    caller's job list: ~46k on perfbench's ``distributed-n2048``) moves
    to the collector's permanent generation, and no later full
    collection walks it again. On that workload the full collections
    of one cold pass fell from 0.15–0.17 s to 0.02–0.03 s. The caveat:
    frozen objects are never examined again, so cyclic garbage among
    them is never reclaimed. That is why the collect runs first, and
    why the heap is frozen once and not around each job, which would
    freeze each job's cyclic garbage under the next.
    """
    _freeze_long_lived_heap()
    job = Job.from_dict(job_dict)
    check_backend_names([job.backend["name"]], f"job {job.key}: ")
    if not job.profile:
        return _run_job(job, None)
    with gc_pauses() as pauses:
        record = _run_job(job, PhaseProfiler())
    record["profile"]["gc"] = pauses
    return record


#: The process that last froze its heap (see :func:`execute_job`).
_frozen_pid: Optional[int] = None


def _freeze_long_lived_heap() -> None:
    """Collect, then freeze the heap, once per process."""
    global _frozen_pid
    if _frozen_pid != os.getpid():
        _frozen_pid = os.getpid()
        gc.collect()
        gc.freeze()


def _run_job(job: Job, profiler: Optional[PhaseProfiler]) -> Dict[str, Any]:
    """The body of :func:`execute_job`, with the job's profiler, if any."""
    with maybe_span(profiler, "build_instance"):
        instance = build_instance(job)
    algorithm = ALGORITHMS[job.algorithm]
    rng = random.Random(job.algorithm_seed())
    ledger = None
    # Ledger construction is inside the timed window: the numpy tier
    # pays its array compile there, so stored wall_time rows compare
    # backends end-to-end (same clock placement as
    # benchmarks/bench_e18_profile.py).
    started = time.perf_counter()
    if algorithm.accepts_run:
        ledger = make_ledger_run(job.backend, instance.graph)
        if profiler is not None:
            profiler.attach(ledger)
    result = algorithm.run(
        instance, rng, run=ledger, profiler=profiler, **job.algo_params
    )
    wall_time = time.perf_counter() - started
    if profiler is not None:
        profiler.finish()
    result.solution.assert_feasible(instance)

    metrics: Dict[str, Any] = {
        "n": instance.graph.num_nodes,
        "m": instance.graph.num_edges,
        "t": instance.num_terminals,
        "weight": result.solution.weight,
        "wall_time": wall_time,
    }
    run = result.run
    if run is not None:
        metrics["rounds"] = run.rounds
        metrics["messages"] = run.messages
        metrics["bits"] = run.bits
        peak = run.max_edge_messages()
        if peak:
            metrics["max_edge_messages"] = peak
    network_model = build_network_model(job.network)
    if network_model.name != "reliable" and run is not None:
        # The solvers run against the clean ledger; surface the network
        # condition's latency overhead via the model's synchronizer
        # accounting (see NetworkModel.emulated_rounds).
        metrics["emulated_rounds"] = network_model.emulated_rounds(
            run.rounds, bandwidth_bits=run.bandwidth_bits
        )
    metrics.update(result.metrics)
    if job.exact:
        from repro.exact import steiner_forest_cost

        opt = steiner_forest_cost(instance)
        metrics["opt"] = opt
        metrics["ratio"] = result.solution.weight / opt if opt else 1.0

    record = job.identity()
    record["key"] = job.key
    record["schema"] = SCHEMA_VERSION
    # Explicit display/grouping fields: identity() omits the default
    # network, backend, and placement (cache-key stability), records
    # never do.
    record["placement"] = job.placement
    record["network"] = {
        "model": network_model.name,
        "params": dict(job.network["params"]),
    }
    record["network_model"] = network_model.name
    record["backend"] = {
        "name": job.backend["name"],
        "params": dict(job.backend["params"]),
    }
    record["backend_name"] = job.backend["name"]
    record["metrics"] = metrics
    if profiler is not None:
        record["profile"] = profiler.to_dict(
            bandwidth_bits=ledger.bandwidth_bits if ledger is not None else None
        )
        declines = getattr(ledger, "declines", None)
        if declines:
            record["profile"]["declines"] = dict(sorted(declines.items()))
    return record


#: Progress sink: called with one human-readable line per event.
ProgressLog = Optional[Callable[[str], None]]


def stderr_log(message: str) -> None:
    """The default CLI progress sink (long sweeps aren't silent)."""
    print(message, file=sys.stderr, flush=True)


def _job_event(
    telemetry: Optional[Any],
    status: str,
    job: Job,
    *,
    done: int = 0,
    total: int = 0,
    **fields: Any,
) -> None:
    """One job-lifecycle event (queued → running → cached / completed /
    failed) on the bus, when one is attached."""
    if telemetry is None:
        return
    telemetry.emit(
        "job_queued" if status == "queued" else
        "job_start" if status == "running" else
        "job_cached" if status == "cached" else "job_end",
        status=status,
        scenario=job.scenario,
        algorithm=job.algorithm,
        key=job.key,
        done=done,
        total=total,
        **fields,
    )


#: Pool-crash retry budget per job: a job whose worker died once is
#: retried in a fresh pool (jobs are pure, and the killer was probably a
#: neighbour); a job in flight across two crashes is presumed poisonous
#: and fails permanently.
MAX_JOB_ATTEMPTS = 2


def _run_jobs(
    jobs: List[Job],
    max_workers: Optional[int],
    parallel: bool,
    log: ProgressLog = None,
    scenario: str = "",
    telemetry: Optional[Any] = None,
    worker: Callable[[Mapping[str, Any]], Dict[str, Any]] = execute_job,
) -> List[Dict[str, Any]]:
    payloads = [job.to_dict() for job in jobs]
    total = len(payloads)

    def note(done: int, job: Job, record: Dict[str, Any]) -> None:
        wall = record["metrics"].get("wall_time", 0.0)
        # The legacy progress line is rendered by the telemetry console
        # shim (format_progress) from this event; ``log`` callers get it
        # through a CallbackSink attached in run_spec.
        _job_event(
            telemetry, "completed", job,
            done=done, total=total, wall_time=wall,
        )
        if telemetry is not None:
            telemetry.histogram("engine.job_wall_seconds").observe(wall)
            telemetry.counter("engine.jobs_executed").inc()

    def fail(done: int, job: Job, error: BaseException) -> None:
        _job_event(
            telemetry, "failed", job,
            done=done, total=total, error=repr(error),
        )
        if telemetry is not None:
            telemetry.counter("engine.jobs_failed").inc()

    if not parallel or len(jobs) <= 1:
        records = []
        for job, payload in zip(jobs, payloads):
            _job_event(telemetry, "running", job,
                       done=len(records), total=total)
            try:
                record = worker(payload)
            except BaseException as exc:
                fail(len(records) + 1, job, exc)
                raise
            records.append(record)
            note(len(records), job, record)
        return records
    if max_workers is None:
        # Saturate the machine by default; sweeps are embarrassingly
        # parallel and jobs are independent.
        max_workers = os.cpu_count() or 1
    results: List[Optional[Dict[str, Any]]] = [None] * total
    attempts = [0] * total
    pending_indices = list(range(total))
    crashed: List[int] = []
    done = 0
    for index in pending_indices:
        _job_event(telemetry, "queued", jobs[index],
                   done=index + 1, total=total)
    while pending_indices:
        broken: Optional[BaseException] = None
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(worker, payloads[index]): index
                for index in pending_indices
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except BrokenProcessPool as exc:
                    # The pool is poisoned: every unfinished future will
                    # raise the same error. Leave the loop and decide
                    # per job below (retry in a fresh pool, or fail).
                    broken = exc
                    break
                except BaseException as exc:
                    done += 1
                    fail(done, jobs[index], exc)
                    raise
                done += 1
                note(done, jobs[index], results[index])
        if broken is None:
            break
        # A worker died mid-sweep (killed process, OOM, segfault). Every
        # unfinished job was either running in or queued behind the dead
        # worker; charge each one an attempt, retry the ones with budget
        # left in a fresh pool, and surface the rest as structured
        # failures instead of wedging on the bare BrokenProcessPool.
        unfinished = [i for i in pending_indices if results[i] is None]
        retryable = []
        for index in unfinished:
            attempts[index] += 1
            if attempts[index] < MAX_JOB_ATTEMPTS:
                retryable.append(index)
            else:
                done += 1
                crashed.append(index)
                fail(done, jobs[index], broken)
        pending_indices = retryable
    if crashed:
        raise WorkerCrashError(
            f"worker process died while running {len(crashed)} job(s) "
            f"(each retried once in a fresh pool; "
            f"{total - len(crashed)} of {total} jobs completed)",
            job_keys=[jobs[index].key for index in crashed],
        )
    return results


@dataclass
class SweepStats:
    """Outcome of running one spec: what ran, what the cache absorbed.

    ``records`` holds the full result set for the spec in job order —
    freshly executed rows merged with cached rows read back from the store.
    """

    scenario: str
    executed: int
    cached: int
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Total jobs the spec expanded to (executed + cache hits)."""
        return self.executed + self.cached


def _open_telemetry(
    telemetry: Optional[Any], log: ProgressLog, workload: Dict[str, Any]
) -> "tuple[Optional[Any], bool]":
    """Resolve the bus a sweep reports to: the caller's, a private one
    wrapping ``log`` (so legacy progress callers get byte-identical
    lines through the compat sink), or none at all.

    Returns ``(telemetry, owned)``; an owned bus is closed by the sweep.
    """
    if telemetry is not None:
        return telemetry, False
    if log is None:
        return None, False
    from repro.telemetry import CallbackSink, RunManifest, Telemetry

    bus = Telemetry(
        manifest=RunManifest(workload=workload),
        sinks=[CallbackSink(log)],
    )
    return bus, True


def run_spec(
    spec: ScenarioSpec,
    store: Optional[ResultStore] = None,
    max_workers: Optional[int] = None,
    parallel: bool = True,
    log: ProgressLog = None,
    telemetry: Optional[Any] = None,
) -> SweepStats:
    """Expand ``spec``, skip rows already in ``store``, run the rest.

    Without a store everything executes and nothing persists (useful for
    benchmarks that only want the records). ``log`` receives one line per
    progress event (cache summary, per-job completion); pass
    :func:`stderr_log` for CLI-style output, None for silence.

    ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry` bus:
    the sweep emits ``sweep_start``/``sweep_end``, job-lifecycle events
    (queued → running → cached/completed/failed), and cache/store
    counters. When only ``log`` is given, a private bus renders the
    historical progress strings through the compat sink — the legacy
    lines are now *views* over structured events. Telemetry observes
    and never participates: detached runs are byte-identical.
    """
    jobs = expand_jobs(spec)
    if store is not None and telemetry is not None:
        # Store-level lookup/index counters land on the sweep's registry.
        store.bind_metrics(telemetry.metrics)
    # One key-only read answers both "which jobs hit" and "what did they
    # store": the index probes just this scenario's keys, so a warm
    # sweep costs the scenario's size, not the store's.
    by_key: Dict[str, Dict[str, Any]] = {}
    if store is not None:
        for record in store.select(keys=[job.key for job in jobs]):
            by_key.setdefault(record["key"], record)
    rows_read = len(by_key)
    pending = [job for job in jobs if job.key not in by_key]
    hits = len(jobs) - len(pending)
    tele, owned = _open_telemetry(telemetry, log, {"scenario": spec.name})
    if tele is not None and not owned and log is not None:
        # Caller supplied both a bus and a legacy logger: bridge them.
        from repro.telemetry import CallbackSink

        tele.add_sink(CallbackSink(log))
    try:
        if tele is not None:
            tele.emit(
                "sweep_start",
                scenario=spec.name,
                jobs=len(jobs),
                cache_hits=hits,
                to_run=len(pending),
            )
            tele.counter("engine.cache.hit").inc(hits)
            tele.counter("engine.cache.miss").inc(len(pending))
            for job in jobs:
                if job.key in by_key:
                    _job_event(tele, "cached", job, total=len(jobs))
        fresh = _run_jobs(
            pending,
            max_workers=max_workers,
            parallel=parallel,
            log=None if tele is not None else log,
            scenario=spec.name,
            telemetry=tele,
        )
        if store is not None and fresh:
            store.append(fresh)
            if tele is not None:
                tele.counter("engine.store.rows_written").inc(len(fresh))

        # Fresh records take precedence over cached rows.
        by_key.update((record["key"], record) for record in fresh)
        if tele is not None and rows_read:
            tele.counter("engine.store.rows_read").inc(rows_read)
        records = [by_key[job.key] for job in jobs if job.key in by_key]
        if tele is not None:
            tele.emit(
                "sweep_end",
                scenario=spec.name,
                executed=len(pending),
                cached=hits,
                records=len(records),
            )
    finally:
        if owned:
            tele.close()
    return SweepStats(
        scenario=spec.name,
        executed=len(pending),
        cached=hits,
        records=records,
    )


def run_suite(
    specs: Iterable[ScenarioSpec],
    store: Optional[ResultStore] = None,
    max_workers: Optional[int] = None,
    parallel: bool = True,
    log: ProgressLog = None,
    telemetry: Optional[Any] = None,
) -> List[SweepStats]:
    """Run several specs against one store; returns per-spec stats.

    A ``telemetry`` bus is shared across every spec (one run id, one
    event stream); per-spec events carry the scenario name.
    """
    return [
        run_spec(
            spec,
            store=store,
            max_workers=max_workers,
            parallel=parallel,
            log=log,
            telemetry=telemetry,
        )
        for spec in specs
    ]
