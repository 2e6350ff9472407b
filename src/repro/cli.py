"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``solve`` — generate a seeded random instance and solve it with a chosen
  algorithm, printing weight / rounds / ratio.
* ``compare`` — run every algorithm on one instance and print the table.
* ``gadget`` — build a Figure 1 lower-bound gadget and report the
  dichotomy and cut traffic.
* ``sweep`` — run named scenarios from the engine's registry across
  parallel worker processes, persisting results to a store.
* ``batch`` — run ad-hoc scenario specs from a JSON file through the
  same engine.
* ``suite`` — list, inspect, or run curated scenario suites (``smoke``,
  ``adversity``, ``scaling``, ``nightly``) through the same engine.
* ``report`` — aggregate a result store into per-scenario tables.
* ``profile`` — run one registered scenario with phase-level profiling
  and print a flame-style per-phase rounds/messages/wall-time report.
* ``trace`` — summarize, diff, or export telemetry event streams: the
  per-phase rounds/messages/bits table of an instrumented run (or a
  captured JSONL stream), and logical-metric diffs across backends.
* ``bench`` — the ``bench check`` regression gate: re-measure the
  committed BENCH_*.json trajectory and compare.
* ``serve`` — run the solver daemon: a warm worker pool behind a unix
  (or TCP) socket, serving cache hits in microseconds, deduplicating
  identical in-flight requests across clients, and streaming job
  telemetry to subscribed connections.
* ``submit`` — send one or more scenario requests to a running daemon.
* ``ping`` — liveness / stats probe of a running daemon.
* ``store`` — result-store utilities: ``inspect`` (rows, schema
  histogram, index status), ``migrate`` (rewrite every row at the
  current schema), ``reindex`` (rebuild the sidecar key index).

The engine subcommands (``sweep``/``batch``/``suite``/``profile``)
share ``--quiet`` / ``--verbose`` / ``--telemetry PATH`` flags mapping
onto telemetry console-sink levels and a JSONL event stream.

The algorithm table lives in :mod:`repro.engine.algorithms`, shared with
the experiment engine and the benchmarks.
"""

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import (
    ALGORITHMS,
    REGISTRY,
    SUITES,
    ResultStore,
    ScenarioSpec,
    expand_suites,
    render_report,
    run_suite,
)
from repro.engine.jobs import expand_jobs
from repro.engine.runner import stderr_log
from repro.exact import steiner_forest_cost
from repro.lowerbounds import (
    cr_dichotomy_holds,
    dsf_cr_gadget,
    dsf_ic_gadget,
    ic_dichotomy_holds,
    measure_cut_traffic,
    random_disjointness_sets,
)
from repro.netmodel import NETWORK_MODELS, normalize_network
from repro.perf import render_profile_report
from repro.simbackend import BACKENDS, normalize_backend
from repro.workloads import TERMINAL_PLACEMENTS, random_instance

DEFAULT_STORE = "results/experiments.jsonl"
DEFAULT_FLIGHT_DIR = "results/flight"


def _parse_spec_params(raw_params: str, kind: str) -> Dict[str, Any]:
    """Parse ``key=value,...`` (values parse as JSON, with bracket-aware
    comma splitting so ``victims=[0,1]`` works)."""
    params: Dict[str, Any] = {}
    depth, item, items = 0, "", []
    for char in raw_params:
        if char in "[{(":
            depth += 1
        elif char in ")}]":
            depth -= 1
        if char == "," and depth == 0:
            items.append(item)
            item = ""
        else:
            item += char
    if item:
        items.append(item)
    for entry in items:
        key, sep, value = entry.partition("=")
        if not sep:
            raise ValueError(f"bad {kind} parameter {entry!r} (want key=value)")
        try:
            params[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            params[key.strip()] = value.strip()
    return params


def parse_network_arg(text: str) -> Dict[str, Any]:
    """Parse a ``--network`` value into a canonical network spec.

    Accepts a model name (``lossy``), a name with ``key=value``
    parameters (``lossy:drop_p=0.2,retransmit=2``), or a full JSON spec
    object.
    """
    text = text.strip()
    if text.startswith("{"):
        # The canonical normalizer rejects misplaced keys, so a
        # parameter nested one level too shallow errors instead of
        # silently running the model with defaults.
        return normalize_network(json.loads(text))
    name, _, raw_params = text.partition(":")
    return {"model": name.strip(), "params": _parse_spec_params(raw_params, "network")}


def parse_backend_arg(text: str) -> Dict[str, Any]:
    """Parse a ``--backend`` value into a canonical backend spec.

    Accepts an engine name (``flatarray``), a name with ``key=value``
    parameters (``auto:threshold=128``), or a full JSON spec object.
    """
    text = text.strip()
    if text.startswith("{"):
        # The canonical normalizer rejects misplaced keys, so a
        # parameter nested one level too shallow errors instead of
        # silently running the engine with defaults.
        return normalize_backend(json.loads(text))
    name, _, raw_params = text.partition(":")
    return {"name": name.strip(), "params": _parse_spec_params(raw_params, "backend")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Steiner forest (Lenzen & Patt-Shamir, "
        "PODC 2014) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one random instance")
    solve.add_argument("--n", type=int, default=20, help="number of nodes")
    solve.add_argument("--k", type=int, default=3, help="input components")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="distributed"
    )
    solve.add_argument(
        "--exact",
        action="store_true",
        help="also compute the exact optimum (exponential time)",
    )

    compare = sub.add_parser("compare", help="run all algorithms")
    compare.add_argument("--n", type=int, default=18)
    compare.add_argument("--k", type=int, default=3)
    compare.add_argument("--seed", type=int, default=0)

    gadget = sub.add_parser("gadget", help="build a Figure 1 gadget")
    gadget.add_argument("--kind", choices=("cr", "ic"), default="ic")
    gadget.add_argument("--universe", type=int, default=8)
    gadget.add_argument("--seed", type=int, default=0)
    gadget.add_argument(
        "--intersecting", action="store_true",
        help="force A ∩ B ≠ ∅",
    )

    sweep = sub.add_parser(
        "sweep", help="run registered scenarios through the engine"
    )
    sweep.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to run (repeatable; default: every registered one)",
    )
    sweep.add_argument("--list", action="store_true", help="list scenarios")
    _add_engine_options(sweep)

    batch = sub.add_parser(
        "batch", help="run ad-hoc scenario specs from a JSON file"
    )
    batch.add_argument(
        "spec", help="path to a JSON file with one spec object or a list"
    )
    _add_engine_options(batch)

    suite = sub.add_parser(
        "suite", help="list, inspect, or run curated scenario suites"
    )
    suite.add_argument(
        "action",
        choices=("list", "show", "run"),
        help="list all suites, show members of named suites, or run them",
    )
    suite.add_argument(
        "names",
        nargs="*",
        metavar="SUITE",
        help="suite names (required for show/run)",
    )
    _add_engine_options(suite)

    profile = sub.add_parser(
        "profile",
        help="profile a scenario's pipeline per phase (flame-style report)",
    )
    profile.add_argument(
        "--scenario",
        default="grid-rounds",
        metavar="NAME",
        help="registered scenario to profile (default: grid-rounds, the "
        "paper-pipeline Section 4.1 vs 4.2 workload)",
    )
    profile.add_argument(
        "--algorithm",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to a subset of the scenario's algorithms (repeatable)",
    )
    _add_engine_options(profile)

    trace = sub.add_parser(
        "trace",
        help="summarize, diff, or export telemetry event streams",
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)

    trace_summary = trace_sub.add_parser(
        "summary",
        help="per-phase rounds/messages/bits table of a run or stream",
    )
    trace_summary.add_argument(
        "events",
        nargs="?",
        default=None,
        metavar="EVENTS",
        help="captured telemetry JSONL to summarize (default: run a "
        "fresh instrumented distributed run)",
    )
    trace_summary.add_argument(
        "--backend",
        default="reference",
        metavar="ENGINE",
        help="ledger engine for the instrumented run (default: reference)",
    )
    _add_trace_workload_options(trace_summary)

    trace_diff = trace_sub.add_parser(
        "diff",
        help="diff two streams' (or two backends') logical metrics",
    )
    trace_diff.add_argument(
        "a",
        metavar="A",
        help="telemetry JSONL path, or a ledger engine name to run",
    )
    trace_diff.add_argument(
        "b",
        metavar="B",
        help="telemetry JSONL path, or a ledger engine name to run",
    )
    _add_trace_workload_options(trace_diff)

    trace_export = trace_sub.add_parser(
        "export",
        help="filter/re-emit a captured telemetry stream as JSONL",
    )
    trace_export.add_argument(
        "events", metavar="EVENTS", help="captured telemetry JSONL"
    )
    trace_export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the filtered stream here (default: stdout)",
    )
    trace_export.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="EVENT",
        help="keep only events of this kind (repeatable, e.g. phase)",
    )
    trace_export.add_argument(
        "--run",
        default=None,
        metavar="RUN_ID",
        help="keep only events of this run id",
    )

    bench = sub.add_parser(
        "bench", help="benchmark utilities (regression gate)"
    )
    bench_sub = bench.add_subparsers(dest="action", required=True)
    bench_check = bench_sub.add_parser(
        "check",
        help="re-measure the committed BENCH_*.json trajectory and compare",
    )
    bench_check.add_argument(
        "--file",
        action="append",
        default=None,
        metavar="PATH",
        help="committed benchmark JSON to gate (repeatable; default: "
        "the BENCH_profile, _serve, _observe, _store and _numpy JSON "
        "files where present)",
    )
    bench_check.add_argument(
        "--max-n",
        type=int,
        default=64,
        help="skip committed entries above this instance size (default 64)",
    )
    bench_check.add_argument(
        "--tolerance",
        type=float,
        default=50.0,
        help="wall-time slack multiplier vs committed seconds (default 50; "
        "logical metrics always compare exactly)",
    )
    bench_check.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream the gate's telemetry events to PATH as JSONL",
    )

    serve = sub.add_parser(
        "serve",
        help="run the solver daemon (warm pool behind a socket)",
    )
    _add_serve_endpoint(serve)
    serve.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"result store path (JSONL; default {DEFAULT_STORE})",
    )
    serve.add_argument(
        "--no-store",
        action="store_true",
        help="serve from memory only (nothing persists across restarts)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="warm worker-process count (default: cpu count)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="jobs inside the pool at once (default: worker count)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission bound: jobs admitted but unfinished before "
        "submits are rejected as overloaded (default 1024)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=100.0,
        help="per-connection request rate cap in requests/s (default 100)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=200.0,
        help="per-connection burst allowance (default 200)",
    )
    verbosity = serve.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--quiet", action="store_true",
        help="no per-job progress lines on stderr",
    )
    verbosity.add_argument(
        "--verbose", action="store_true",
        help="print every telemetry event on stderr",
    )
    serve.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream the daemon's telemetry events to PATH as JSONL",
    )
    serve.add_argument(
        "--flight-dir",
        default=DEFAULT_FLIGHT_DIR,
        metavar="DIR",
        help="flight-recorder dump directory "
        f"(default {DEFAULT_FLIGHT_DIR})",
    )
    serve.add_argument(
        "--flight-events",
        type=int,
        default=512,
        metavar="N",
        help="flight-recorder ring capacity in events (default 512)",
    )
    serve.add_argument(
        "--no-flight",
        action="store_true",
        help="run without the flight recorder",
    )
    serve.add_argument(
        "--store-refresh",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="re-read the store on this cadence so rows appended by "
        "other processes (CLI sweeps) become cache hits (0 = off)",
    )

    store_cmd = sub.add_parser(
        "store",
        help="result-store utilities (inspect / migrate / reindex)",
    )
    store_sub = store_cmd.add_subparsers(dest="action", required=True)
    store_inspect = store_sub.add_parser(
        "inspect",
        help="row count, schema-version histogram, and index status",
    )
    store_inspect.add_argument("path", metavar="STORE",
                               help="JSONL store file")
    store_migrate = store_sub.add_parser(
        "migrate",
        help="rewrite every row at the current schema (atomic replace)",
    )
    store_migrate.add_argument("path", metavar="STORE",
                               help="JSONL store file")
    store_migrate.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the migrated store here instead of in-place",
    )
    store_migrate.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be rewritten without writing anything",
    )
    store_reindex = store_sub.add_parser(
        "reindex",
        help="force-rebuild the sidecar key index from the JSONL",
    )
    store_reindex.add_argument("path", metavar="STORE",
                               help="JSONL store file")

    submit = sub.add_parser(
        "submit", help="submit scenario requests to a running daemon"
    )
    _add_serve_endpoint(submit)
    submit.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="registered scenario to request (repeatable)",
    )
    submit.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON file with one ScenarioSpec object or a list of them",
    )
    submit.add_argument(
        "--stream",
        action="store_true",
        help="subscribe to job-lifecycle events (printed on stderr)",
    )
    submit.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the returned records to PATH as JSONL",
    )

    ping = sub.add_parser(
        "ping", help="liveness / stats probe of a running daemon"
    )
    _add_serve_endpoint(ping)
    ping.add_argument(
        "--stats",
        action="store_true",
        help="also fetch and print the server's counters",
    )

    metrics = sub.add_parser(
        "metrics",
        help="scrape a running daemon's metrics registry",
    )
    _add_serve_endpoint(metrics)
    metrics_format = metrics.add_mutually_exclusive_group()
    metrics_format.add_argument(
        "--prom",
        action="store_true",
        help="Prometheus text exposition (the default)",
    )
    metrics_format.add_argument(
        "--json",
        action="store_true",
        help="raw registry snapshot as pretty-printed JSON",
    )

    top = sub.add_parser(
        "top",
        help="live ANSI dashboard over a running daemon",
    )
    _add_serve_endpoint(top)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        help="stop after this many screens (default 0 = until ^C)",
    )

    flight = sub.add_parser(
        "flight",
        help="inspect the daemon's flight-recorder dumps",
    )
    flight_sub = flight.add_subparsers(dest="action", required=True)
    flight_show = flight_sub.add_parser(
        "show",
        help="print the last events of a flight dump, human-readable",
    )
    flight_dump = flight_sub.add_parser(
        "dump",
        help="re-emit a flight dump's events as JSONL",
    )
    for action in (flight_show, flight_dump):
        action.add_argument(
            "path",
            nargs="?",
            default=DEFAULT_FLIGHT_DIR,
            help="a dump file, or a directory to take the newest dump "
            f"from (default {DEFAULT_FLIGHT_DIR})",
        )
        action.add_argument(
            "--last",
            type=int,
            default=0,
            metavar="N",
            help="only the last N events (default 0 = all retained)",
        )
    flight_dump.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSONL to PATH instead of stdout",
    )

    report = sub.add_parser("report", help="aggregate a result store")
    report.add_argument("--store", default=DEFAULT_STORE)
    report.add_argument(
        "--scenario", default=None, help="restrict to one scenario"
    )
    report.add_argument(
        "--network",
        default=None,
        metavar="MODEL",
        help="restrict to one network model "
        f"({', '.join(sorted(NETWORK_MODELS))})",
    )
    report.add_argument(
        "--backend",
        default=None,
        metavar="ENGINE",
        help="restrict to one ledger backend "
        f"({', '.join(sorted(BACKENDS))})",
    )
    report.add_argument(
        "--placement",
        default=None,
        metavar="STRATEGY",
        help="restrict to one terminal placement "
        f"({', '.join(sorted(TERMINAL_PLACEMENTS))})",
    )
    report.add_argument(
        "--html",
        default=None,
        metavar="OUT",
        help="render a self-contained HTML run report instead of the "
        "store aggregation (requires --events)",
    )
    report.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="captured telemetry JSONL stream to render with --html",
    )
    return parser


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"result store path (JSONL; default {DEFAULT_STORE})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="run without persisting (disables caching)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="worker process count"
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="run jobs in-process instead of worker processes",
    )
    parser.add_argument(
        "--network",
        action="append",
        default=None,
        metavar="SPEC",
        help="override the network axis (repeatable): a model name "
        f"({', '.join(sorted(NETWORK_MODELS))}), NAME:key=value,..., "
        "or a JSON spec object",
    )
    parser.add_argument(
        "--backend",
        action="append",
        default=None,
        metavar="SPEC",
        help="override the ledger-backend axis (repeatable): a "
        f"tier name ({', '.join(sorted(BACKENDS))}), "
        "NAME:key=value,..., or a JSON spec object",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress lines on stderr",
    )
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="print every telemetry event on stderr (structured), not "
        "just the progress lines",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream the run's telemetry events to PATH as JSONL",
    )


def _add_serve_endpoint(parser: argparse.ArgumentParser) -> None:
    """Daemon endpoint flags shared by ``serve``/``submit``/``ping``."""
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="unix socket path (the usual endpoint)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP host when using --port (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (alternative to --socket)",
    )


def _add_trace_workload_options(parser: argparse.ArgumentParser) -> None:
    """Workload knobs for ``repro trace``'s instrumented runs (ignored
    when summarizing/diffing captured streams)."""
    parser.add_argument(
        "--n", type=int, default=64, help="number of nodes (default 64)"
    )
    parser.add_argument(
        "--k", type=int, default=3, help="input components (default 3)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--p", type=float, default=0.35, help="edge probability (default 0.35)"
    )
    parser.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="distributed",
        help="solver to instrument; every solver but the centralized moat "
        "and rounded narrates a ledger (default: distributed)",
    )


def _cmd_solve(args) -> int:
    rng = random.Random(args.seed)
    inst = random_instance(args.n, args.k, rng)
    result = ALGORITHMS[args.algorithm].run(inst, random.Random(args.seed))
    result.solution.assert_feasible(inst)
    print(f"algorithm : {args.algorithm}")
    print(f"instance  : n={args.n} k={args.k} seed={args.seed}")
    print(f"weight    : {result.solution.weight}")
    if result.rounds is not None:
        print(f"rounds    : {result.rounds}")
    if args.exact:
        opt = steiner_forest_cost(inst)
        ratio = result.solution.weight / opt if opt else 1.0
        print(f"optimum   : {opt}")
        print(f"ratio     : {ratio:.3f}")
    return 0


def _cmd_compare(args) -> int:
    rng = random.Random(args.seed)
    inst = random_instance(args.n, args.k, rng)
    opt = steiner_forest_cost(inst)
    print(f"instance n={args.n} k={args.k} seed={args.seed} OPT={opt}")
    print(f"{'algorithm':12s} {'weight':>7s} {'ratio':>7s} {'rounds':>7s}")
    for name in sorted(ALGORITHMS):
        result = ALGORITHMS[name].run(inst, random.Random(args.seed))
        weight = result.solution.weight
        rounds = "-" if result.rounds is None else result.rounds
        ratio = weight / opt if opt else 1.0
        print(f"{name:12s} {weight:7d} {ratio:7.3f} {rounds!s:>7s}")
    return 0


def _cmd_gadget(args) -> int:
    rng = random.Random(args.seed)
    a, b = random_disjointness_sets(args.universe, rng, args.intersecting)
    if args.kind == "cr":
        gadget = dsf_cr_gadget(args.universe, a, b)
        ok = cr_dichotomy_holds(gadget)
    else:
        gadget = dsf_ic_gadget(args.universe, a, b)
        ok = ic_dichotomy_holds(gadget)
    bits = measure_cut_traffic(gadget)
    print(f"gadget    : DSF-{args.kind.upper()} (Figure 1)")
    print(f"universe  : {args.universe}  A={sorted(a)}  B={sorted(b)}")
    print(f"A∩B≠∅     : {gadget.intersecting}")
    print(f"dichotomy : {'holds' if ok else 'VIOLATED'}")
    print(f"cut bits  : {bits}")
    return 0 if ok else 1


def _apply_axis_overrides(
    args, specs: List[ScenarioSpec]
) -> Optional[List[ScenarioSpec]]:
    """Apply ``--network`` / ``--backend`` overrides; None on bad input
    (the error is printed to stderr)."""
    if args.network:
        try:
            networks = [parse_network_arg(text) for text in args.network]
            specs = [replace(spec, network=networks) for spec in specs]
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: invalid --network: {exc}", file=sys.stderr)
            return None
    if args.backend:
        try:
            backends = [parse_backend_arg(text) for text in args.backend]
            specs = [replace(spec, backend=backends) for spec in specs]
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: invalid --backend: {exc}", file=sys.stderr)
            return None
    return specs


def _engine_telemetry(args, specs: List[ScenarioSpec]) -> Tuple[Any, Any]:
    """``(telemetry, log)`` for an engine run per the verbosity flags.

    Default (no flags) keeps the legacy path — ``log=stderr_log``, the
    runner's private compat bus — so output stays byte-identical. Any
    flag switches to an explicit bus: ``--telemetry`` adds a JSONL
    sink, ``--verbose`` a full-event console sink, ``--quiet`` drops
    the console entirely (the JSONL sink still records).
    """
    if not args.quiet and not args.verbose and args.telemetry is None:
        return None, stderr_log
    from repro.telemetry import ConsoleSink, JsonlSink, RunManifest, Telemetry

    sinks: List[Any] = []
    if args.telemetry is not None:
        sinks.append(JsonlSink(args.telemetry))
    if args.verbose:
        sinks.append(ConsoleSink(verbose=True))
    elif not args.quiet:
        sinks.append(ConsoleSink(verbose=False))
    manifest = RunManifest(
        workload={"scenarios": [spec.name for spec in specs]}
    )
    return Telemetry(manifest=manifest, sinks=sinks), None


def _run_engine(args, specs: List[ScenarioSpec]) -> int:
    overridden = _apply_axis_overrides(args, specs)
    if overridden is None:
        return 2
    specs = overridden
    store = None if args.no_store else ResultStore(args.store)
    telemetry, log = _engine_telemetry(args, specs)
    try:
        all_stats = run_suite(
            specs,
            store=store,
            max_workers=args.workers,
            parallel=not args.serial,
            log=log,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    records = []
    for stats in all_stats:
        print(
            f"scenario {stats.scenario:20s} "
            f"executed={stats.executed:4d} cached={stats.cached:4d}"
        )
        records.extend(stats.records)
    if store is not None:
        print(f"store     : {store.path} ({len(store)} records)")
    print()
    print(render_report(records))
    return 0


def _cmd_sweep(args) -> int:
    if args.list:
        print(f"{'scenario':16s} {'family':10s} {'networks':28s} {'algorithms'}")
        for name in REGISTRY.names():
            spec = REGISTRY.get(name)
            networks = ", ".join(spec.network_names)
            print(
                f"{name:16s} {spec.family:10s} {networks:28s} "
                f"{', '.join(spec.algorithms)}"
            )
        return 0
    try:
        specs = REGISTRY.specs(args.scenario or ())
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return _run_engine(args, specs)


def _cmd_batch(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict):
            data = [data]
        specs = [ScenarioSpec.from_dict(entry) for entry in data]
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: invalid spec file {args.spec}: {exc}", file=sys.stderr)
        return 2
    return _run_engine(args, specs)


def _spec_placements(spec: ScenarioSpec) -> str:
    """The placement strategies a spec's grid sweeps, for display."""
    value = spec.grid.get("placement", "uniform")
    entries = value if isinstance(value, (list, tuple)) else [value]
    return ", ".join(str(entry) for entry in entries)


def _cmd_suite(args) -> int:
    if args.action == "list":
        if args.names:
            print("error: 'suite list' takes no suite names", file=sys.stderr)
            return 2
        print(f"{'suite':10s} {'scenarios':>9s} {'jobs':>6s} description")
        for name in SUITES.names():
            suite = SUITES.get(name)
            print(
                f"{name:10s} {len(suite.scenarios):9d} "
                f"{suite.job_count():6d} {suite.description}"
            )
        return 0
    if not args.names:
        print(f"error: 'suite {args.action}' needs suite names", file=sys.stderr)
        return 2
    try:
        specs = expand_suites(SUITES, args.names)
    except (KeyError, ValueError) as exc:
        # KeyError: unknown suite name; ValueError: requested suites
        # define conflicting specs under one scenario name.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.action == "show":
        print(
            f"{'scenario':20s} {'family':12s} {'placements':22s} "
            f"{'jobs':>5s} {'algorithms'}"
        )
        for spec in specs:
            print(
                f"{spec.name:20s} {spec.family:12s} "
                f"{_spec_placements(spec):22s} {len(expand_jobs(spec)):5d} "
                f"{', '.join(spec.algorithms)}"
            )
        return 0
    return _run_engine(args, specs)


def _cmd_profile(args) -> int:
    try:
        spec = REGISTRY.get(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.algorithm:
        unknown = [a for a in args.algorithm if a not in spec.algorithms]
        if unknown:
            print(
                f"error: scenario {spec.name!r} does not run {unknown}; "
                f"choose from {list(spec.algorithms)}",
                file=sys.stderr,
            )
            return 2
        spec = replace(spec, algorithms=tuple(args.algorithm))
    # Profiled jobs hash to their own cache keys, so a profile run never
    # collides with (or poisons) unprofiled sweep results in the store —
    # and re-profiling an unchanged scenario is absorbed by the cache.
    spec = replace(spec, profile=True)
    specs = _apply_axis_overrides(args, [spec])
    if specs is None:
        return 2
    store = None if args.no_store else ResultStore(args.store)
    # Unlike sweep/batch, profiling defaults to in-process execution:
    # the report's wall-time column is the whole point, and a saturated
    # worker pool would measure scheduler contention instead of the
    # pipeline. --workers N is the explicit opt-in to parallelism.
    telemetry, log = _engine_telemetry(args, specs)
    try:
        all_stats = run_suite(
            specs,
            store=store,
            max_workers=args.workers,
            parallel=args.workers is not None and not args.serial,
            log=log,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    records = [record for stats in all_stats for record in stats.records]
    print(render_profile_report(records))
    return 0


def _instrumented_trace(args, backend: str) -> List[Dict[str, Any]]:
    """Run the chosen ledger-narrating solver once with a telemetry bus
    attached; returns the captured event stream (``repro trace``'s
    fresh-run mode)."""
    from repro.perf import make_ledger_run
    from repro.telemetry import MemorySink, RunManifest, Telemetry

    algorithm = ALGORITHMS[args.algorithm]
    if not algorithm.accepts_run:
        raise ValueError(
            f"algorithm {args.algorithm!r} does not narrate a ledger: "
            "moat and rounded are centralized, with no CONGEST rounds "
            "to trace"
        )
    instance = random_instance(
        args.n, args.k, random.Random(args.seed), p=args.p
    )
    sink = MemorySink()
    manifest = RunManifest(
        workload={
            "algorithm": args.algorithm,
            "n": args.n,
            "k": args.k,
            "p": args.p,
            "seed": args.seed,
        },
        backend=normalize_backend(backend),
    )
    with Telemetry(manifest=manifest, sinks=[sink]) as telemetry:
        run = make_ledger_run(backend, instance.graph)
        bridge = telemetry.attach_ledger(run)
        with telemetry.span("solve", algorithm=args.algorithm, backend=backend):
            algorithm.run(instance, random.Random(args.seed), run=run)
        bridge.finish()
    return sink.events


def _cmd_trace(args) -> int:
    from repro.telemetry import (
        diff_streams,
        encode_event,
        read_events,
        render_summary,
    )

    if args.action == "summary":
        if args.events is not None:
            try:
                events = read_events(args.events)
            except (OSError, json.JSONDecodeError) as exc:
                print(
                    f"error: cannot read events {args.events}: {exc}",
                    file=sys.stderr,
                )
                return 2
            title = str(args.events)
        else:
            try:
                events = _instrumented_trace(args, args.backend)
            except (KeyError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            title = (
                f"{args.algorithm} n={args.n} k={args.k} "
                f"backend={args.backend}"
            )
        print(render_summary(events, title=title))
        return 0

    if args.action == "diff":
        try:
            if Path(args.a).is_file() and Path(args.b).is_file():
                events_a = read_events(args.a)
                events_b = read_events(args.b)
            else:
                # Not two stream files: treat A/B as ledger engines and
                # run the same workload on each (the conformance view).
                events_a = _instrumented_trace(args, args.a)
                events_b = _instrumented_trace(args, args.b)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        identical, report = diff_streams(
            events_a, events_b, label_a=args.a, label_b=args.b
        )
        print(report)
        return 0 if identical else 1

    # export: filter a captured stream and re-emit it as JSONL.
    try:
        events = read_events(args.events)
    except (OSError, json.JSONDecodeError) as exc:
        print(
            f"error: cannot read events {args.events}: {exc}", file=sys.stderr
        )
        return 2
    if args.kind:
        wanted = set(args.kind)
        events = [e for e in events if e.get("event") in wanted]
    if args.run:
        events = [e for e in events if e.get("run_id") == args.run]
    lines = [encode_event(event) for event in events]
    if args.out is not None:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        print(f"exported {len(lines)} events to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_bench(args) -> int:
    from repro.telemetry import JsonlSink, RunManifest, Telemetry, check_benches

    paths = args.file
    if not paths:
        paths = [
            name
            for name in (
                "BENCH_profile.json",
                "BENCH_serve.json",
                "BENCH_observe.json",
                "BENCH_store.json",
                "BENCH_numpy.json",
            )
            if Path(name).is_file()
        ]
    if not paths:
        print(
            "error: no committed BENCH_*.json found; pass --file",
            file=sys.stderr,
        )
        return 2
    telemetry = None
    if args.telemetry is not None:
        telemetry = Telemetry(
            manifest=RunManifest(workload={"gate": "bench-check"}),
            sinks=[JsonlSink(args.telemetry)],
        )
    try:
        report = check_benches(
            paths,
            max_n=args.max_n,
            tolerance=args.tolerance,
            telemetry=telemetry,
        )
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if telemetry is not None:
            telemetry.close()
    print(report.render())
    return 0 if report.ok else 1


def _serve_telemetry(args) -> Any:
    """The daemon's telemetry bus per the verbosity flags. Unlike the
    batch commands there is no legacy log path — the daemon always runs
    on an explicit bus (the welcome frame advertises its run id)."""
    from repro.telemetry import ConsoleSink, JsonlSink, RunManifest, Telemetry

    sinks: List[Any] = []
    if args.telemetry is not None:
        sinks.append(JsonlSink(args.telemetry))
    if args.verbose:
        sinks.append(ConsoleSink(verbose=True))
    elif not args.quiet:
        sinks.append(ConsoleSink(verbose=False))
    manifest = RunManifest(workload={"service": "repro-serve"})
    return Telemetry(manifest=manifest, sinks=sinks)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve.server import ServeServer
    from repro.serve.service import SolverService

    if args.socket is None and args.port is None:
        print("error: serve needs --socket PATH or --port N", file=sys.stderr)
        return 2
    store = None if args.no_store else ResultStore(args.store)
    telemetry = _serve_telemetry(args)
    flight = None
    if not args.no_flight:
        from repro.telemetry import FlightRecorder

        flight = telemetry.add_sink(
            FlightRecorder(args.flight_dir, capacity=args.flight_events)
        )

    async def _run() -> None:
        service = SolverService(
            store=store,
            max_workers=args.workers,
            max_inflight=args.max_inflight,
            max_pending=args.max_pending,
            telemetry=telemetry,
        )
        await service.start()
        server = ServeServer(
            service,
            rate=args.rate,
            burst=args.burst,
            store_refresh=args.store_refresh,
        )
        if args.socket is not None:
            await server.start_unix(args.socket)
            endpoint = f"unix:{args.socket}"
        else:
            await server.start_tcp(args.host, args.port)
            endpoint = f"tcp:{args.host}:{args.port}"
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        print(
            f"repro serve: listening on {endpoint} "
            f"(workers={service.max_workers}, "
            f"cached_keys={len(service._hot)})",
            file=sys.stderr,
        )
        await server.serve_until(stop)
        print("repro serve: drained and stopped", file=sys.stderr)

    clean_exit = False
    try:
        asyncio.run(_run())
        clean_exit = True
    finally:
        # The drain/crash flush discipline: sinks are fsync'd, the bus
        # closed (emitting the final metrics snapshot + run_end), and
        # the flight recorder dumps its ring — *after* close, so the
        # dump's tail carries the final metrics and run_end events.
        telemetry.flush()
        telemetry.close()
        if flight is not None:
            dump = flight.dump("drain" if clean_exit else "error")
            if dump is not None:
                print(f"repro serve: flight dump {dump}", file=sys.stderr)
    return 0


def _cmd_metrics(args) -> int:
    from repro.serve.client import ServeClient, ServeClientError
    from repro.telemetry import render_json, render_prometheus

    try:
        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port,
            name="repro-metrics",
        ) as client:
            frame = client.metrics()
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    snapshot = frame.get("metrics") or {}
    if args.json:
        print(render_json(snapshot))
    else:
        sys.stdout.write(render_prometheus(snapshot))
    return 0


def _cmd_top(args) -> int:
    from repro.serve.top import run_top

    return run_top(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        interval=args.interval,
        count=args.count,
    )


def _cmd_flight(args) -> int:
    from repro.telemetry import (
        encode_event,
        format_event,
        latest_dump,
        read_events,
    )

    path = Path(args.path)
    if path.is_dir():
        newest = latest_dump(path)
        if newest is None:
            print(f"error: no flight dumps in {path}", file=sys.stderr)
            return 1
        path = newest
    if not path.is_file():
        print(f"error: no flight dump at {path}", file=sys.stderr)
        return 1
    events = read_events(path)
    if args.last > 0:
        events = events[-args.last :]
    if args.action == "show":
        print(f"flight dump {path} — {len(events)} events")
        for event in events:
            print(format_event(event))
        return 0
    payload = "".join(encode_event(event) + "\n" for event in events)
    if args.out is not None:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(payload, encoding="utf-8")
        print(f"wrote {len(events)} events to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_submit(args) -> int:
    from repro.serve.client import ServeClient, ServeClientError

    requests: List[Tuple[str, Dict[str, Any]]] = []
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if isinstance(data, dict):
                data = [data]
            for entry in data:
                requests.append((str(entry.get("name", "<spec>")), entry))
        except (OSError, json.JSONDecodeError, AttributeError) as exc:
            print(
                f"error: invalid spec file {args.spec}: {exc}",
                file=sys.stderr,
            )
            return 2
    scenarios = list(args.scenario or ())
    if not requests and not scenarios:
        print(
            "error: submit needs --scenario NAME and/or --spec FILE",
            file=sys.stderr,
        )
        return 2

    def show(event: Dict[str, Any]) -> None:
        print(
            f"  [{event.get('event', '?')}] "
            f"{event.get('scenario', '')} "
            f"{event.get('status', '')} "
            f"({event.get('done', '?')}/{event.get('total', '?')})",
            file=sys.stderr,
        )

    on_event = show if args.stream else None
    records: List[Dict[str, Any]] = []
    try:
        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        ) as client:
            for name in scenarios:
                outcome = client.submit(
                    scenario=name, stream=args.stream, on_event=on_event
                )
                _print_submit_row(name, outcome)
                records.extend(outcome.records)
            for name, payload in requests:
                outcome = client.submit(
                    spec=payload, stream=args.stream, on_event=on_event
                )
                _print_submit_row(name, outcome)
                records.extend(outcome.records)
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def _print_submit_row(name: str, outcome: Any) -> None:
    print(
        f"scenario {name:20s} executed={outcome.executed:4d} "
        f"cached={outcome.cached:4d} shared={outcome.shared:4d}"
    )


def _cmd_ping(args) -> int:
    from repro.serve.client import ServeClient, ServeClientError

    try:
        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        ) as client:
            pong = client.ping()
            stats = client.stats() if args.stats else None
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"server    : {pong.get('server')}")
    print(f"uptime    : {pong.get('uptime')}s")
    print(f"draining  : {pong.get('draining')}")
    if stats is not None:
        for key in sorted(stats):
            if key in ("type", "id", "server"):
                continue
            print(f"{key:14s}: {stats[key]}")
    return 0


def _cmd_store(args) -> int:
    from collections import Counter

    from repro.engine.index import StoreIndex, scan_rows
    from repro.engine.migration import CHAIN
    from repro.engine.store import SCHEMA_VERSION

    path = Path(args.path)
    if not path.exists():
        print(f"error: no store at {path}", file=sys.stderr)
        return 2
    if args.action == "inspect":
        rows = 0
        versions: Counter = Counter()
        keys = set()
        duplicates = 0
        for _, _, row in scan_rows(path):
            rows += 1
            versions[CHAIN.row_version(row)] += 1
            key = row.get("key")
            if key in keys:
                duplicates += 1
            keys.add(key)
        status = StoreIndex(path).status()
        print(f"store    {path} ({path.stat().st_size} bytes)")
        print(f"rows     {rows} ({len(keys)} distinct keys, "
              f"{duplicates} duplicates)")
        histogram = ", ".join(
            f"v{version}: {count}" for version, count in sorted(versions.items())
        )
        print(f"schema   current v{SCHEMA_VERSION}; "
              f"stored {{{histogram or 'empty'}}}")
        print(f"index    {status['state']} "
              f"({status['keys']} keys over {status['indexed_bytes']} bytes)")
        return 0
    if args.action == "migrate":
        target = Path(args.output) if args.output else path
        versions = Counter()
        rows = []
        for _, _, row in scan_rows(path):
            versions[CHAIN.row_version(row)] += 1
            migrated = CHAIN.migrate(row)
            migrated["schema"] = SCHEMA_VERSION
            rows.append(migrated)
        stale = sum(
            count for version, count in versions.items()
            if version < SCHEMA_VERSION
        )
        if args.dry_run:
            print(f"would rewrite {len(rows)} rows to {target} "
                  f"({stale} below v{SCHEMA_VERSION})")
            return 0
        tmp = target.with_name(target.name + ".migrating")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        os.replace(tmp, target)
        # The rewrite invalidates the sidecar by construction; rebuild
        # now so the next reader doesn't pay it.
        StoreIndex(target).rebuild()
        print(f"migrated {len(rows)} rows to {target} "
              f"({stale} upgraded to v{SCHEMA_VERSION}, index rebuilt)")
        return 0
    index = StoreIndex(path)
    index.rebuild()
    status = index.status()
    print(f"reindexed {path}: {status['rows']} rows, "
          f"{status['keys']} keys over {status['indexed_bytes']} bytes")
    return 0


def _cmd_report(args) -> int:
    if args.html is not None:
        if args.events is None:
            print(
                "error: --html renders a telemetry stream; pass "
                "--events PATH (a captured JSONL stream)",
                file=sys.stderr,
            )
            return 2
        from repro.telemetry import read_events
        from repro.telemetry.report_html import render_html_report

        try:
            events = read_events(args.events)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.events}: {exc}", file=sys.stderr)
            return 2
        html = render_html_report(
            events, title=f"repro run report — {Path(args.events).name}"
        )
        target = Path(args.html)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(html, encoding="utf-8")
        print(f"wrote {target} ({len(events)} events rendered)")
        return 0
    store = ResultStore(args.store)
    records = store.select(
        scenario=args.scenario,
        network=args.network,
        backend=args.backend,
        placement=args.placement,
    )
    print(render_report(records))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "compare": _cmd_compare,
        "gadget": _cmd_gadget,
        "sweep": _cmd_sweep,
        "batch": _cmd_batch,
        "suite": _cmd_suite,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "ping": _cmd_ping,
        "metrics": _cmd_metrics,
        "top": _cmd_top,
        "flight": _cmd_flight,
        "store": _cmd_store,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
