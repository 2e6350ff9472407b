"""The ``repro bench check`` regression gate.

Re-runs a pinned subset of the committed benchmark trajectory —
``BENCH_profile.json`` (the distributed Steiner-forest pipeline per
ledger engine), ``BENCH_serve.json`` (daemon load), ``BENCH_observe.json``
(observability overhead), ``BENCH_store.json`` (indexed vs full-scan
store lookup), and ``BENCH_numpy.json`` (the regular-primitives
pipeline per ledger tier) — and compares against the committed entries:

* **logical metrics** (rounds, messages, solution weight) must match
  the committed values *exactly*: they are deterministic, so any drift
  is a real behavior change, not noise;
* **wall time** must stay under ``tolerance ×`` the committed seconds
  (with an absolute floor, since sub-millisecond entries on a different
  machine are pure scheduler noise). The default tolerance is
  deliberately generous — the gate exists to catch crashes and gross
  regressions across CI hardware, not to police single-digit percents.

Every check run narrates to an optional telemetry bus (one span per
entry, pass/fail counters), so CI uploads the gate's own event stream
as an artifact.
"""

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Wall-time slack: measured seconds may be tolerance × committed,
#: but never less than this many absolute seconds (tiny committed
#: entries would otherwise gate on scheduler noise).
WALL_FLOOR_SECONDS = 1.0


class BackendUnavailable(RuntimeError):
    """A committed entry needs an optional execution tier that is not
    installed here (e.g. the numpy extra). The gate skips the entry —
    the dependency-free environment must stay able to check the rest of
    the file — and the tier's own CI job re-measures it for real."""


@dataclass
class CheckRow:
    """One re-measured benchmark entry vs its committed values."""

    source: str
    n: int
    backend: str
    ok: bool
    seconds: float
    allowed_seconds: float
    mismatches: List[str] = field(default_factory=list)

    @property
    def detail(self) -> str:
        return "; ".join(self.mismatches) if self.mismatches else "ok"


@dataclass
class BenchCheckReport:
    """All rows of one gate run; ``ok`` iff every row passed."""

    rows: List[CheckRow] = field(default_factory=list)
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def render(self) -> str:
        if not self.rows:
            return (
                "bench check: no checkable entries "
                f"({self.skipped} skipped)"
            )
        width = max(len(r.source) for r in self.rows)
        lines = [
            f"{'bench'.ljust(width)} {'n':>6s} {'backend':>10s} "
            f"{'seconds':>9s} {'allowed':>9s} {'verdict'}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.source.ljust(width)} {row.n:6d} {row.backend:>10s} "
                f"{row.seconds:9.3f} {row.allowed_seconds:9.3f} "
                f"{'PASS' if row.ok else 'FAIL: ' + row.detail}"
            )
        passed = sum(1 for row in self.rows if row.ok)
        lines.append(
            f"{passed}/{len(self.rows)} entries pass "
            f"({self.skipped} skipped: size cap or unavailable tier)"
        )
        return "\n".join(lines)


def _compare(
    committed: Dict[str, Any],
    measured: Dict[str, Any],
    tolerance: float,
) -> CheckRow:
    mismatches = []
    for column in (
        "rounds", "messages", "weight", "requests", "hits", "rows", "lookups",
    ):
        if column not in committed:
            continue
        if measured[column] != committed[column]:
            mismatches.append(
                f"{column} {measured[column]} != committed {committed[column]}"
            )
    allowed = max(tolerance * committed["seconds"], WALL_FLOOR_SECONDS)
    if measured["seconds"] > allowed:
        mismatches.append(
            f"wall {measured['seconds']:.3f}s > allowed {allowed:.3f}s"
        )
    return CheckRow(
        source=committed["source"],
        n=committed["n"],
        backend=committed["backend"],
        ok=not mismatches,
        seconds=measured["seconds"],
        allowed_seconds=allowed,
        mismatches=mismatches,
    )


def pipeline_instance(workload: Dict[str, Any], n: int) -> Any:
    """The BENCH_profile instance of size ``n``: ``random_instance(n, k,
    Random(n), p)`` with the ``workload``'s ``k`` and ``p``."""
    from repro.workloads import random_instance

    return random_instance(
        n,
        int(workload.get("k", 3)),
        random.Random(n),
        p=float(workload.get("p", 0.35)),
    )


def measure_pipeline(
    workload: Dict[str, Any], n: int, backend: str
) -> Tuple[Dict[str, Any], Any]:
    """One BENCH_profile entry: the ``workload``'s ledger solver on
    :func:`pipeline_instance`, ledger construction inside the clock. The
    single definition behind both ``benchmarks/bench_e18_profile.py``
    and the gate; returns the entry and the execution fingerprint
    (solution, rounds, per-edge traffic, phase breakdown)."""
    from repro.engine.algorithms import ALGORITHMS
    from repro.perf import make_ledger_run

    algorithm = ALGORITHMS[workload.get("algorithm", "distributed")]
    if not algorithm.accepts_run:
        raise ValueError(
            f"bench workload algorithm {algorithm.name!r} has no ledger"
        )
    instance = pipeline_instance(workload, n)
    started = time.perf_counter()
    run = make_ledger_run(backend, instance.graph)
    result = algorithm.run(instance, random.Random(0), run=run)
    elapsed = time.perf_counter() - started
    entry = {
        "seconds": elapsed,
        "rounds": result.rounds,
        "messages": run.messages,
        "weight": result.solution.weight,
    }
    fingerprint = (
        result.solution.weight,
        sorted(result.solution.edges, key=repr),
        result.rounds,
        run.messages,
        sorted(run.edge_messages.items(), key=repr),
        result.metrics.get("num_phases"),
        dict(run.phase_rounds),
    )
    return entry, fingerprint


def _measure_serve(
    workload: Dict[str, Any], n: int, backend: str
) -> Tuple[Dict[str, Any], None]:
    """One BENCH_serve-style entry, re-measured (same load generation as
    ``benchmarks/bench_e19_serve.py``): ``backend`` is the config label
    (``hit<percent>-c<clients>``), ``n`` the per-client request count.
    The request mix is constructed so ``requests`` and ``hits`` are
    exact (see :mod:`repro.serve.loadgen`), which is what lets the gate
    compare them like the engine benches compare rounds."""
    from repro.serve.loadgen import measure_config

    return measure_config(workload, per_client=n, label=backend), None


def _measure_observe(
    workload: Dict[str, Any], n: int, backend: str
) -> Tuple[Dict[str, Any], None]:
    """One BENCH_observe-style entry, re-measured (same load generation
    as ``benchmarks/bench_e20_observe.py``): ``backend`` is the daemon
    mode (``instrumented`` or ``detached``), ``n`` the warm-hit request
    count. Every timed request hits the same pre-warmed cache key, so
    ``requests`` and ``hits`` are exact."""
    from repro.serve.loadgen import measure_observe

    return measure_observe(workload, requests=n, mode=backend), None


def _measure_store(
    workload: Dict[str, Any], n: int, backend: str
) -> Tuple[Dict[str, Any], None]:
    """One BENCH_store-style entry, re-measured (same synthetic store
    and lookup mix as ``benchmarks/bench_e21_store.py``): ``backend``
    is the lookup mode (``scan``, ``indexed`` or ``scenario``), ``n``
    the store's row count. Row and lookup counts are deterministic by
    construction, so the gate compares them exactly."""
    from repro.engine.storebench import DEFAULT_LOOKUPS, measure_mode

    lookups = int(workload.get("lookups", DEFAULT_LOOKUPS))
    return measure_mode(n, backend, lookups=lookups), None


def measure_primitives(
    workload: Dict[str, Any], n: int, backend: str
) -> Tuple[Dict[str, Any], Any]:
    """One BENCH_numpy entry: the regular-primitives pipeline — BFS
    tree, multi-source Bellman–Ford, pipelined broadcast, convergecast
    aggregation — on a sparse random connected graph, charged against
    the ledger tier named by ``backend``. Ledger construction is inside
    the clock; the fingerprint (tree, distances/tags/parents, aggregate,
    full per-edge ledger) is built outside it. The single definition
    behind both ``benchmarks/bench_e22_numpy.py`` and the gate."""
    from fractions import Fraction

    from repro.congest.bellman_ford import bellman_ford
    from repro.congest.bfs import build_bfs_tree
    from repro.congest.broadcast import broadcast_items, convergecast_aggregate
    from repro.perf import make_ledger_run
    from repro.simbackend import numpy_tier_available
    from repro.workloads import random_connected_graph

    if backend == "numpy" and not numpy_tier_available():
        raise BackendUnavailable(
            "optional numpy extra not installed; numpy-tier entry skipped"
        )
    degree = int(workload.get("degree", 8))
    num_sources = int(workload.get("num_sources", 8))
    num_items = int(workload.get("num_items", 32))
    graph = random_connected_graph(n, min(0.35, degree / n), random.Random(n))
    started = time.perf_counter()
    run = make_ledger_run(backend, graph)
    tree = build_bfs_tree(graph, run=run)
    nodes = graph.nodes
    step = max(1, len(nodes) // num_sources)
    sources = {
        nodes[i]: (Fraction(0), f"tag{i}")
        for i in range(0, len(nodes), step)
    }
    bf = bellman_ford(graph, sources, run)
    broadcast_items(tree, [("item", i) for i in range(num_items)], run)
    total = convergecast_aggregate(
        tree, {v: 1 for v in nodes}, lambda a, b: a + b, run
    )
    elapsed = time.perf_counter() - started
    entry = {"seconds": elapsed, "rounds": run.rounds, "messages": run.messages}
    fingerprint = (
        list(tree.parent.items()),
        tree.depth,
        list(bf.dist.items()),
        list(bf.tag.items()),
        list(bf.parent.items()),
        bf.iterations,
        total,
        run.rounds,
        run.messages,
        sorted(run.edge_messages.items(), key=repr),
    )
    return entry, fingerprint


#: Per-bench re-measurement drivers, keyed by the JSON's ``experiment``.
#: Each returns ``(entry, fingerprint)``; the service benches have no
#: execution to fingerprint and return ``None``.
_DRIVERS = {
    "e18-profile": measure_pipeline,
    "e19-serve": _measure_serve,
    "e20-observe": _measure_observe,
    "e21-store": _measure_store,
    "e22-numpy": measure_primitives,
}


def check_bench_file(
    path: Any,
    max_n: int = 64,
    tolerance: float = 50.0,
    telemetry: Optional[Any] = None,
    report: Optional[BenchCheckReport] = None,
) -> BenchCheckReport:
    """Gate one committed BENCH_*.json file; returns the (shared) report."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    experiment = data.get("experiment", "")
    try:
        driver = _DRIVERS[experiment]
    except KeyError:
        raise ValueError(
            f"{path.name}: unknown benchmark experiment {experiment!r}; "
            f"checkable: {sorted(_DRIVERS)}"
        ) from None
    workload = data.get("workload", {})
    if report is None:
        report = BenchCheckReport()
    for entry in data.get("entries", []):
        n = int(entry["n"])
        backend = str(entry["backend"])
        if n > max_n:
            report.skipped += 1
            continue
        committed = dict(entry, source=path.name)
        try:
            if telemetry is not None:
                with telemetry.span(
                    "bench-check", bench=path.name, n=n, backend=backend
                ):
                    measured, _ = driver(workload, n, backend)
            else:
                measured, _ = driver(workload, n, backend)
        except BackendUnavailable:
            report.skipped += 1
            continue
        row = _compare(committed, measured, tolerance)
        report.rows.append(row)
        if telemetry is not None:
            telemetry.emit(
                "bench_check",
                bench=path.name,
                n=n,
                backend=backend,
                ok=row.ok,
                seconds=round(row.seconds, 6),
                allowed_seconds=round(row.allowed_seconds, 6),
                detail=row.detail,
            )
            telemetry.counter(
                "bench.passed" if row.ok else "bench.failed"
            ).inc()
    return report


def check_benches(
    paths: Any,
    max_n: int = 64,
    tolerance: float = 50.0,
    telemetry: Optional[Any] = None,
) -> BenchCheckReport:
    """Gate several BENCH files into one report (missing files error)."""
    report = BenchCheckReport()
    for path in paths:
        check_bench_file(
            path,
            max_n=max_n,
            tolerance=tolerance,
            telemetry=telemetry,
            report=report,
        )
    return report
