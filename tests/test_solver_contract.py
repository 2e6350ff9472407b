"""The one solver contract: every ``ALGORITHMS`` entry runs through
``run(instance, rng, run=None, profiler=None, **params) -> SolveResult``.

Pinned here:

1. **Records across ledger tiers** — every solver's job record is the
   same on the ``reference``, ``flatarray`` and ``numpy`` backends,
   apart from ``wall_time`` and the backend's own identity fields, and
   carries exactly its solver's metric columns.
2. **Ledger solvers take the engine's ledger** — ``randomized``,
   ``khan`` and ``spanner`` charge the ledger ``make_ledger_run``
   builds for the job's backend, so a profiled job shows their own
   phases and the numpy tier runs them without a kernel decline.
"""

import functools
import random

import pytest

from repro.engine import runner
from repro.engine.algorithms import ALGORITHMS, SolveResult
from repro.engine.jobs import Job
from repro.engine.runner import execute_job
from repro.model import SteinerForestInstance, WeightedGraph
from repro.simbackend import numpy_tier_available
from repro.workloads import random_instance

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(),
    reason="optional numpy extra not installed",
)

#: Each solver's own record columns (``SolveResult.metrics`` keys).
SOLVER_METRICS = {
    "moat": {"num_merge_phases"},
    "rounded": {"num_merge_phases", "growth_phases"},
    "distributed": {"num_phases"},
    "sublinear": {"sigma", "num_growth_phases", "num_merge_phases"},
    "randomized": set(),
    "khan": set(),
    "spanner": set(),
}
BASE_METRICS = {"n", "m", "t", "weight", "wall_time"}
LEDGER_METRICS = {"rounds", "messages", "bits", "max_edge_messages"}

INSTANCES = {
    "gnp": {"n": 24, "p": 0.25},
    "torus": {"rows": 4, "cols": 5},
}

#: Record fields that name the backend rather than describe the run.
BACKEND_FIELDS = {"key", "backend", "backend_name"}


@functools.lru_cache(maxsize=None)
def _record(algorithm: str, family: str, backend: str) -> dict:
    return execute_job(Job(
        scenario="solver-contract", family=family,
        family_params=INSTANCES[family], k=3, component_size=2,
        algorithm=algorithm, backend=backend,
    ).to_dict())


def _comparable(record: dict) -> dict:
    fields = {k: v for k, v in record.items() if k not in BACKEND_FIELDS}
    fields["metrics"] = {
        k: v for k, v in record["metrics"].items() if k != "wall_time"
    }
    return fields


@pytest.mark.parametrize("family", sorted(INSTANCES))
@pytest.mark.parametrize(
    "backend",
    ["reference", "flatarray", pytest.param("numpy", marks=requires_numpy)],
)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_records_match_across_ledger_tiers(algorithm, backend, family):
    record = _record(algorithm, family, backend)
    reference = _record(algorithm, family, "reference")
    assert record["backend_name"] == backend
    assert _comparable(record) == _comparable(reference)
    expected = BASE_METRICS | SOLVER_METRICS[algorithm]
    if ALGORITHMS[algorithm].accepts_run:
        expected |= LEDGER_METRICS
    assert set(record["metrics"]) == expected


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_adapters_return_one_solve_result(algorithm):
    instance = random_instance(12, 2, random.Random(5))
    result = ALGORITHMS[algorithm].run(instance, random.Random(5))
    assert isinstance(result, SolveResult)
    result.solution.assert_feasible(instance)
    assert set(result.metrics) == SOLVER_METRICS[algorithm]
    if ALGORITHMS[algorithm].accepts_run:
        assert result.rounds == result.run.rounds > 0
    else:
        assert result.run is None and result.rounds is None


#: The merge-phase column of each moat solver's record.
MERGE_PHASE_METRIC = {
    "moat": "num_merge_phases",
    "rounded": "num_merge_phases",
    "distributed": "num_phases",
    "sublinear": "num_merge_phases",
}


def test_merge_phase_counts_agree_without_merges():
    """Two singleton components on the path 0–1–2: no moat is active,
    nothing merges, and every moat solver counts 0 merge phases
    (Definition 4.3)."""
    graph = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
    instance = SteinerForestInstance(graph, {0: "a", 2: "b"})
    counts = {
        name: ALGORITHMS[name].run(instance, random.Random(0)).metrics[metric]
        for name, metric in MERGE_PHASE_METRIC.items()
    }
    assert counts == dict.fromkeys(MERGE_PHASE_METRIC, 0)


#: Phases each of these ledger solvers names on its ledger.
OWN_PHASES = {
    "randomized": {"regime-detection", "first-stage"},
    "khan": {"khan"},
    "spanner": {"spanner"},
}


@requires_numpy
@pytest.mark.parametrize("algorithm", sorted(OWN_PHASES))
def test_profiled_ledger_solver_runs_on_the_numpy_ledger(
    algorithm, monkeypatch
):
    from repro.perf.npkernels import NumpyCongestRun

    built = []
    make = runner.make_ledger_run

    def capture(backend, graph):
        built.append(make(backend, graph))
        return built[-1]

    monkeypatch.setattr(runner, "make_ledger_run", capture)
    record = execute_job(Job(
        scenario="solver-contract", family="gnp",
        family_params={"n": 48, "p": 0.1}, k=3, component_size=2,
        algorithm=algorithm,
        backend={
            "name": "auto",
            "params": {"threshold": 16, "numpy_threshold": 16},
        },
        profile=True,
    ).to_dict())
    assert len(built) == 1 and isinstance(built[0], NumpyCongestRun)
    phases = {row["phase"] for row in record["profile"]["phases"]}
    assert OWN_PHASES[algorithm] <= phases
    assert "solve" not in phases
    assert "declines" not in record["profile"]
    assert record["metrics"]["rounds"] == built[0].rounds
