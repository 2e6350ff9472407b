"""Experiment engine: scenario registry, batch runner, and result store.

The engine turns the one-off sweep loops of ``benchmarks/`` into a
first-class subsystem:

* :mod:`repro.engine.algorithms` — the algorithm registry (the single
  source of truth shared by the CLI, benchmarks, and the engine).
* :mod:`repro.engine.registry` — graph families and named
  :class:`ScenarioSpec` definitions combining a family, terminal
  placement, algorithms, and a parameter grid.
* :mod:`repro.engine.jobs` — spec expansion into content-hashed,
  independently seeded :class:`Job` records.
* :mod:`repro.engine.runner` — parallel execution across worker
  processes with per-job metric collection.
* :mod:`repro.engine.suites` — curated, named suites of scenarios
  (``smoke``, ``adversity``, ``scaling``, ``nightly``) expanded through
  the same runner/store stack.
* :mod:`repro.engine.store` — append-only JSONL result store with
  content-hash caching (re-running a spec skips computed rows).
* :mod:`repro.engine.migration` — the declarative schema-migration
  chain (one :class:`MigrationStep` per version bump, validated
  gapless at import time) every store read goes through.
* :mod:`repro.engine.index` — the sqlite sidecar key index that makes
  store lookups O(log n) seek-reads while the JSONL stays the
  append-only source of truth.
* :mod:`repro.engine.aggregate` — grouping and statistics feeding
  :mod:`repro.analysis.scaling`.
* :mod:`repro.engine.report` — text report rendering for stores.

Scenario specs carry a **network axis** (:mod:`repro.netmodel`) and a
**backend axis** (:mod:`repro.simbackend`): each job is the cross
product of graph family × algorithm × network condition × execution
engine, and every non-default condition/engine hashes to its own
result-store cache key (the clean defaults keep earlier-schema keys).
Every solver returns one :class:`SolveResult`; for those that charge a
CONGEST ledger (all but ``moat`` and ``rounded``) the backend also
selects the ledger engine (:func:`repro.perf.make_ledger_run`) — wall
time changes, results never do — and a spec's ``profile`` flag rides a
:class:`repro.perf.PhaseProfiler` along, landing per-phase breakdowns
on the records (schema v5).

**Invariant: cache keys are append-only.** Every axis added to
:class:`Job` omits its default value from the identity hash, so rows
written by any earlier schema keep satisfying today's default-valued
jobs; breaking this silently cold-starts every existing store.
"""

from repro.engine.algorithms import ALGORITHMS, AlgorithmSpec, SolveResult
from repro.engine.aggregate import AggregateRow, aggregate_records, ratio_summary
from repro.engine.jobs import Job, content_hash, expand_grid, expand_jobs
from repro.engine.registry import (
    GRAPH_FAMILIES,
    REGISTRY,
    GraphFamily,
    ScenarioRegistry,
    ScenarioSpec,
)
from repro.engine.index import StoreIndex
from repro.engine.migration import (
    CHAIN,
    SCHEMA_VERSION,
    MigrationChain,
    MigrationError,
    MigrationStep,
    build_chain,
)
from repro.engine.report import render_report
from repro.engine.runner import SweepStats, build_instance, execute_job, run_spec, run_suite, stderr_log
from repro.engine.store import ResultStore
from repro.engine.suites import SUITES, SuiteRegistry, SuiteSpec, expand_suites

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "SolveResult",
    "AggregateRow",
    "aggregate_records",
    "ratio_summary",
    "Job",
    "content_hash",
    "expand_grid",
    "expand_jobs",
    "GRAPH_FAMILIES",
    "REGISTRY",
    "GraphFamily",
    "ScenarioRegistry",
    "ScenarioSpec",
    "render_report",
    "SweepStats",
    "build_instance",
    "execute_job",
    "run_spec",
    "run_suite",
    "stderr_log",
    "ResultStore",
    "StoreIndex",
    "CHAIN",
    "SCHEMA_VERSION",
    "MigrationChain",
    "MigrationError",
    "MigrationStep",
    "build_chain",
    "SUITES",
    "SuiteRegistry",
    "SuiteSpec",
    "expand_suites",
]
