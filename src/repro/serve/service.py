"""The solver core behind the daemon: warm pool, cache, dedup, admission.

:class:`SolverService` is transport-independent — the socket server in
:mod:`repro.serve.server` and the in-memory transport the protocol
tests drive both sit on top of it. It owns:

* one :class:`~repro.engine.store.ResultStore` (the shared cache every
  client benefits from) plus an in-memory ``key → record`` hot map so a
  cache hit never re-reads the file;
* one warm :class:`~concurrent.futures.ProcessPoolExecutor` shared by
  every connection — the whole point of the daemon: clients pay
  microseconds of socket round-trip instead of a cold interpreter;
* **request deduplication**: an in-flight ``key → Future`` table, so two
  clients asking for the same cache key share one computation;
* an **admission queue**: a bounded pending-job count (reject with
  ``overloaded`` beyond it) and a semaphore capping how many jobs sit
  in the pool at once — the rest wait their turn in arrival order;
* crash containment: a worker that dies mid-job surfaces as a
  structured ``job_end``/``status=failed`` telemetry event with the
  cause, the pool is rebuilt, and the job is retried once (the runner's
  :data:`~repro.engine.runner.MAX_JOB_ATTEMPTS` discipline).

**Invariant (pinned in tests/test_serve.py): served results are
byte-identical to direct engine runs.** The service executes the exact
:func:`~repro.engine.runner.execute_job` the batch runner uses, on the
exact :class:`~repro.engine.jobs.Job` identities a direct
:func:`~repro.engine.runner.run_spec` would expand — same cache keys,
same stored rows; only the ``wall_time`` metric (a measurement, not a
result) differs run to run (see :func:`strip_volatile`).
"""

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.engine.jobs import Job, expand_jobs
from repro.engine.registry import REGISTRY, ScenarioSpec
from repro.engine.runner import MAX_JOB_ATTEMPTS, execute_job
from repro.engine.store import ResultStore
from repro.telemetry import MetricsRegistry

#: Per-request event callback: receives stamped telemetry event dicts.
EventCallback = Optional[Callable[[Dict[str, Any]], None]]


class ServiceError(Exception):
    """Base class for structured service rejections."""


class OverloadedError(ServiceError):
    """The admission queue is full; the client should retry later."""


class ShuttingDownError(ServiceError):
    """The daemon is draining and accepts no new work."""


class BadRequestError(ServiceError):
    """The submit payload does not resolve to a runnable spec."""


def _warm_worker() -> bool:
    """Pool warm-up task: fork/spawn the worker and pay the imports."""
    import repro.engine.runner  # noqa: F401 (the import is the point)

    return True


def strip_volatile(record: Mapping[str, Any]) -> Dict[str, Any]:
    """A record with measurement-only fields removed, for equality
    pins between served and directly computed results.

    Drops every ``wall_time`` (and profile ``wall``/``seconds``) value
    and a profile's garbage-collector counts (``gc``) recursively;
    everything else — cache key, configuration, logical metrics — is
    part of the deterministic result and survives.
    """
    volatile = {"wall_time", "wall", "seconds", "wall_seconds", "gc"}

    def clean(value: Any) -> Any:
        if isinstance(value, dict):
            return {
                key: clean(inner)
                for key, inner in value.items()
                if key not in volatile
            }
        if isinstance(value, list):
            return [clean(inner) for inner in value]
        return value

    return clean(dict(record))


class ServiceStats:
    """Live read-only view of the service's lifetime counters.

    Historically a plain dataclass of ints; the counters now live in
    the service's :class:`~repro.telemetry.MetricsRegistry` (so the
    daemon's ``metrics`` frame, Prometheus exposition, and the
    telemetry snapshot all read the same instruments), and this class
    keeps the old attribute surface — ``stats.executed``,
    ``stats.to_dict()`` — as properties over the registry.
    """

    #: legacy field name → registry counter backing it.
    FIELDS = {
        "requests": "serve.requests",
        "jobs": "serve.jobs",
        "executed": "serve.executed",
        "cache_hits": "serve.cache.hit",
        "deduped": "serve.dedup.shared",
        "failed": "serve.failed",
        "pool_rebuilds": "serve.pool.rebuilds",
    }

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    def __getattr__(self, name: str) -> int:
        try:
            counter = self.FIELDS[name]
        except KeyError:
            raise AttributeError(name) from None
        return self._metrics.counter(counter).value

    def to_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}


@dataclass
class SubmitOutcome:
    """What one submit request produced."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    shared: int = 0


class SolverService:
    """The warm, shared solver behind every connection.

    Args:
        store: the shared result store (``None`` runs cache-in-memory
            only — results are still deduplicated and served to every
            client, but nothing persists).
        max_workers: pool size (default: ``os.cpu_count()``).
        max_inflight: jobs allowed inside the pool at once (default:
            pool size — queued admissions wait on a semaphore).
        max_pending: admission bound — total jobs admitted but not yet
            finished; a submit that would exceed it is rejected with
            :class:`OverloadedError` rather than queued without bound.
        telemetry: optional :class:`~repro.telemetry.Telemetry` bus;
            job-lifecycle events are emitted there *and* handed to the
            per-request callback, so a streaming client sees the same
            stamped envelopes the daemon's own stream records.
        worker: the job executor (worker-process entry point);
            overridable for tests. Defaults to the engine's
            :func:`~repro.engine.runner.execute_job`.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        max_workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
        max_pending: int = 1024,
        telemetry: Optional[Any] = None,
        worker: Callable[..., Dict[str, Any]] = execute_job,
    ) -> None:
        self.store = store
        self.max_workers = max_workers or os.cpu_count() or 1
        self.max_inflight = max_inflight or self.max_workers
        self.max_pending = max_pending
        self.telemetry = telemetry
        # One registry backs stats, the metrics protocol frame, and the
        # telemetry snapshot: the bus's own registry when attached, a
        # private one otherwise (metrics are always on, events are not).
        self.metrics: MetricsRegistry = (
            telemetry.metrics if telemetry is not None else MetricsRegistry()
        )
        self.stats = ServiceStats(self.metrics)
        self._worker = worker
        self._executing = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._pool_lock: Optional[asyncio.Lock] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending = 0
        self._hot: Dict[str, Dict[str, Any]] = {}
        self._store_offset = 0
        self._draining = False
        self._idle: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Create and warm the pool, load the store's cache keys."""
        self._pool_lock = asyncio.Lock()
        self._slots = asyncio.Semaphore(self.max_inflight)
        self._idle = asyncio.Event()
        self._idle.set()
        if self.store is not None:
            self.store.bind_metrics(self.metrics)
            self._absorb_store_rows()
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        loop = asyncio.get_running_loop()
        # Pay worker startup now, not on the first request.
        await asyncio.gather(*(
            loop.run_in_executor(self._pool, _warm_worker)
            for _ in range(self.max_workers)
        ))
        self.metrics.gauge("serve.queue.pending").set(0)
        self.metrics.gauge("serve.inflight").set(0)
        self._emit(None, "serve_start",
                   workers=self.max_workers,
                   max_inflight=self.max_inflight,
                   max_pending=self.max_pending,
                   cached_keys=len(self._hot))

    async def drain(self) -> None:
        """Stop admitting work and wait for every in-flight job."""
        self._draining = True
        if self._idle is not None:
            await self._idle.wait()

    async def close(self, drain: bool = True) -> None:
        """Drain (optionally), then shut the pool down (idempotent)."""
        if drain:
            await self.drain()
        self._draining = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._emit(None, "serve_end", **self.stats.to_dict())

    @property
    def draining(self) -> bool:
        return self._draining

    # -- store refresh ---------------------------------------------------

    def _absorb_store_rows(self) -> int:
        """Stream rows past the hot-map watermark into the hot map.

        The store's streaming :meth:`~repro.engine.store.ResultStore.scan`
        yields byte offsets, so startup and every later refresh parse
        only bytes the hot map has not seen — never the whole file
        twice. Rows the daemon computed itself come back here too (it
        appends them); ``setdefault`` keeps the in-memory original.
        """
        added = 0
        for offset, length, record in self.store.scan(self._store_offset):
            self._hot.setdefault(record["key"], record)
            self._store_offset = offset + length
            added += 1
        return added

    def refresh_store(self) -> int:
        """Pick up rows appended by *other* processes; returns how many.

        A CLI sweep appending to the daemon's store becomes visible —
        and therefore a cache hit — after this runs (pinned by
        ``tests/test_serve.py``). Wired to a cadence via ``repro serve
        --store-refresh SECONDS``. If the store file was rewritten
        rather than appended (offline ``repro store migrate``), the
        watermark resets and the hot map re-absorbs from byte 0.
        """
        if self.store is None:
            return 0
        self.store.refresh()
        if self.store.tail_offset() < self._store_offset:
            self._store_offset = 0
        added = self._absorb_store_rows()
        if added:
            self.metrics.counter("serve.store.rows_refreshed").inc(added)
            self._emit(
                None, "store_refresh",
                rows=added, cached_keys=len(self._hot),
            )
        return added

    # -- request resolution ----------------------------------------------

    def resolve_spec(self, frame: Mapping[str, Any]) -> ScenarioSpec:
        """Turn a submit frame into a spec: registered name or full dict.

        Raises:
            BadRequestError: neither given, unknown name, invalid spec.
        """
        name = frame.get("scenario")
        payload = frame.get("spec")
        if name is not None:
            try:
                return REGISTRY.get(str(name))
            except KeyError as exc:
                raise BadRequestError(str(exc.args[0])) from exc
        if payload is None:
            raise BadRequestError(
                "submit needs a 'spec' object or a registered 'scenario' name"
            )
        try:
            return ScenarioSpec.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(f"invalid spec: {exc}") from exc

    # -- the request path ------------------------------------------------

    async def submit(
        self, spec: ScenarioSpec, on_event: EventCallback = None
    ) -> SubmitOutcome:
        """Serve one ScenarioSpec-shaped request.

        Expands the spec exactly like the batch runner, answers cache
        hits from the hot map, deduplicates against in-flight identical
        jobs, and schedules the rest on the warm pool. Returns the full
        record set in job order (the same contract as
        :meth:`~repro.engine.runner.run_spec`).
        """
        if self._draining:
            raise ShuttingDownError("server is draining; try again later")
        self.metrics.counter("serve.requests").inc()
        jobs = expand_jobs(spec)
        self.metrics.counter("serve.jobs").inc(len(jobs))
        misses = [
            job for job in jobs
            if job.key not in self._hot and job.key not in self._inflight
        ]
        if self._pending + len(misses) > self.max_pending:
            raise OverloadedError(
                f"admission queue full ({self._pending} pending, "
                f"{len(misses)} new jobs over the {self.max_pending} cap)"
            )
        outcome = SubmitOutcome()
        started = time.perf_counter()
        results = await asyncio.gather(*(
            self._run_job(job, on_event, outcome, done=index + 1,
                          total=len(jobs))
            for index, job in enumerate(jobs)
        ))
        self.metrics.histogram("serve.request.seconds").observe(
            time.perf_counter() - started
        )
        outcome.records = list(results)
        return outcome

    async def _run_job(
        self,
        job: Job,
        on_event: EventCallback,
        outcome: SubmitOutcome,
        done: int,
        total: int,
    ) -> Dict[str, Any]:
        key = job.key
        started = time.perf_counter()
        hit = self._hot.get(key)
        if hit is not None:
            self.metrics.counter("serve.cache.hit").inc()
            self._job_event(on_event, "job_cached", job, status="cached",
                            done=done, total=total)
            outcome.cached += 1
            self._observe_job("hit", started)
            return hit
        shared = self._inflight.get(key)
        if shared is not None:
            # Another client is already computing this exact key: share.
            self.metrics.counter("serve.dedup.shared").inc()
            self._job_event(on_event, "job_deduped", job, status="shared",
                            done=done, total=total)
            record = await asyncio.shield(shared)
            outcome.shared += 1
            self._observe_job("dedup", started)
            return record
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._pending += 1
        self.metrics.gauge("serve.queue.pending").set(self._pending)
        self._idle.clear()
        self.metrics.counter("serve.admitted").inc()
        self._job_event(on_event, "job_queued", job, status="queued",
                        done=done, total=total)
        try:
            async with _slot(self._slots):
                self._executing += 1
                self.metrics.gauge("serve.inflight").set(self._executing)
                self._job_event(on_event, "job_start", job, status="running",
                                done=done, total=total)
                try:
                    record = await self._execute_with_retry(
                        job, on_event, done=done, total=total
                    )
                finally:
                    self._executing -= 1
                    self.metrics.gauge("serve.inflight").set(self._executing)
            if self.store is not None:
                self.store.append([record])
                self.metrics.counter("serve.store.rows_written").inc()
            self._hot[key] = record
            self.metrics.counter("serve.executed").inc()
            self._job_event(
                on_event, "job_end", job, status="completed",
                done=done, total=total,
                wall_time=record["metrics"].get("wall_time", 0.0),
            )
            outcome.executed += 1
            self._observe_job("executed", started)
            future.set_result(record)
            return record
        except BaseException as exc:
            self.metrics.counter("serve.failed").inc()
            self._observe_job("failed", started)
            future.set_exception(exc)
            # Dedup awaiters consume the exception; nobody else should
            # trip "exception never retrieved" if none are waiting.
            future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
            self._pending -= 1
            self.metrics.gauge("serve.queue.pending").set(self._pending)
            if self._pending == 0:
                self._idle.set()

    async def _execute_with_retry(
        self, job: Job, on_event: EventCallback, done: int, total: int
    ) -> Dict[str, Any]:
        """Run one job on the pool, surviving one worker crash."""
        loop = asyncio.get_running_loop()
        payload = job.to_dict()
        for attempt in range(1, MAX_JOB_ATTEMPTS + 1):
            generation = self._pool_generation
            try:
                return await loop.run_in_executor(
                    self._pool, self._worker, payload
                )
            except BrokenProcessPool as exc:
                # The worker running (or queued next to) this job died.
                # Surface it structurally, heal the pool, retry once.
                self.metrics.counter("serve.worker_crash").inc()
                self._job_event(
                    on_event, "job_end", job, status="failed",
                    done=done, total=total,
                    error=repr(exc),
                    attempt=attempt,
                    will_retry=attempt < MAX_JOB_ATTEMPTS,
                )
                await self._rebuild_pool(generation)
                if attempt >= MAX_JOB_ATTEMPTS:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    async def _rebuild_pool(self, seen_generation: int) -> None:
        """Replace a broken pool exactly once per crash generation."""
        async with self._pool_lock:
            if self._pool_generation != seen_generation:
                return  # another coroutine already rebuilt it
            broken = self._pool
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._pool_generation += 1
            self.metrics.counter("serve.pool.rebuilds").inc()
            self._emit(None, "pool_rebuilt",
                       generation=self._pool_generation)
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)

    # -- telemetry plumbing ----------------------------------------------

    def _emit(self, on_event: EventCallback, kind: str, **fields: Any) -> None:
        """One event: stamped on the bus when attached, then streamed to
        the request's subscriber — the bridge from the PR 6 telemetry
        bus onto a connection."""
        if self.telemetry is not None:
            event = self.telemetry.emit(kind, **fields)
        else:
            event = dict(fields, event=kind)
        if on_event is not None:
            on_event(event)

    def _job_event(
        self,
        on_event: EventCallback,
        kind: str,
        job: Job,
        status: str,
        done: int,
        total: int,
        **fields: Any,
    ) -> None:
        self._emit(
            on_event, kind,
            status=status,
            scenario=job.scenario,
            algorithm=job.algorithm,
            key=job.key,
            done=done,
            total=total,
            **fields,
        )

    def _observe_job(self, outcome: str, started: float) -> None:
        """Per-job latency into the outcome-split histogram family."""
        self.metrics.histogram(f"serve.job.{outcome}.seconds").observe(
            time.perf_counter() - started
        )


class _slot:
    """``async with`` adapter over a semaphore (readable call sites)."""

    def __init__(self, semaphore: asyncio.Semaphore) -> None:
        self._semaphore = semaphore

    async def __aenter__(self) -> None:
        await self._semaphore.acquire()

    async def __aexit__(self, *exc_info: Any) -> None:
        self._semaphore.release()
