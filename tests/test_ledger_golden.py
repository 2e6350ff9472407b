"""Golden ledger executions: every ledger tier against pinned results.

``fixtures/ledger_golden.json`` pins, per (solver, instance), everything a
ledger records about one execution: solution weight and edges, rounds,
messages, the per-edge traffic and the per-phase rounds. The pins were
recorded on the reference ledger before the communication primitives
lost their per-tier branches, so they hold every tier to that history
rather than to the code path it now shares with the reference.

The instances are the graph-family matrix of ``tests/test_perf.py``
plus sparse G(48, 0.1) instances, where the randomized algorithm's
reduction step runs Bellman–Ford on a subgraph of the ledger's graph.

Regenerate (only for an intended change of execution) with::

    PYTHONPATH=src python tests/test_ledger_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from repro.baselines.khan import khan_steiner_forest
from repro.baselines.spanner import spanner_steiner_forest
from repro.core.distributed import distributed_moat_growing
from repro.core.moat import moat_growing
from repro.core.pruning import fast_pruning
from repro.core.sublinear import sublinear_moat_growing
from repro.engine.registry import GRAPH_FAMILIES
from repro.model.instance import SteinerForestInstance
from repro.perf import make_ledger_run
from repro.randomized.algorithm import randomized_steiner_forest
from repro.simbackend import numpy_tier_available
from repro.workloads import random_instance

FIXTURE = Path(__file__).parent / "fixtures" / "ledger_golden.json"

FAMILY_PARAMS = {
    "gnp": {"n": 14, "p": 0.3},
    "grid": {"rows": 3, "cols": 4},
    "ring": {"num_blobs": 3, "blob_size": 3},
    "powerlaw": {"n": 14, "m_attach": 2},
    "caterpillar": {"spine": 5, "legs": 2},
}

SPARSE_SEEDS = (0, 1, 2)


def _family_instance(family):
    graph = GRAPH_FAMILIES[family].build(
        random.Random(0xE18), **FAMILY_PARAMS[family]
    )
    terminals = {
        graph.nodes[0]: "a",
        graph.nodes[-1]: "a",
        graph.nodes[1]: "b",
        graph.nodes[-2]: "b",
    }
    return SteinerForestInstance(graph, terminals)


def _instance(case):
    if case.startswith("sparse48-"):
        seed = int(case.split("-")[1])
        return random_instance(48, 3, random.Random(seed), p=0.1)
    return _family_instance(case)


CASES = tuple(FAMILY_PARAMS) + tuple(f"sparse48-{s}" for s in SPARSE_SEEDS)

#: solver name → ``(instance, run) -> result`` with ``solution``,
#: ``rounds`` and ``run``.
SOLVERS = {
    "distributed": lambda inst, run: distributed_moat_growing(inst, run=run),
    "sublinear": lambda inst, run: sublinear_moat_growing(inst, run=run),
    "randomized": lambda inst, run: randomized_steiner_forest(
        inst, rng=random.Random(7), run=run
    ),
    "khan": lambda inst, run: khan_steiner_forest(
        inst, rng=random.Random(7), run=run
    ),
    "spanner": lambda inst, run: spanner_steiner_forest(inst, run=run),
    "fast_pruning": lambda inst, run: fast_pruning(
        inst, moat_growing(inst).solution, run=run
    ),
}

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(), reason="optional numpy extra not installed"
)

#: ``auto`` resolves a tier from the graph's node count. At these sizes
#: its default thresholds pick ``reference``; the forced variants make it
#: pick ``flatarray`` (threshold 1) and ``numpy`` (both thresholds 1), so
#: every spec the ``--backend`` axis accepts is held to the pins.
AUTO_FLATARRAY = {"name": "auto", "params": {"threshold": 1}}
AUTO_NUMPY = {"name": "auto", "params": {"threshold": 1, "numpy_threshold": 1}}

TIERS = [
    "reference",
    "flatarray",
    pytest.param("numpy", marks=requires_numpy),
    "auto",
    pytest.param(AUTO_FLATARRAY, id="auto-flatarray"),
    pytest.param(AUTO_NUMPY, id="auto-numpy", marks=requires_numpy),
]


def _execute(solver, case, tier):
    instance = _instance(case)
    run = make_ledger_run(tier, instance.graph)
    result = SOLVERS[solver](instance, run)
    assert result.run is run
    return {
        "weight": result.solution.weight,
        "edges": sorted(map(repr, result.solution.edges)),
        "rounds": result.rounds,
        "messages": run.messages,
        "traffic": sorted(
            [repr(edge), count] for edge, count in run.edge_messages.items()
        ),
        "phase_rounds": sorted(
            [phase, rounds] for phase, rounds in run.phase_rounds.items()
        ),
    }


def _record():
    return {
        f"{solver}/{case}": _execute(solver, case, "reference")
        for solver in SOLVERS
        for case in CASES
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_matrix(golden):
    assert sorted(golden) == sorted(
        f"{solver}/{case}" for solver in SOLVERS for case in CASES
    )


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_execution_matches_golden(golden, solver, case, tier):
    assert _execute(solver, case, tier) == golden[f"{solver}/{case}"]


@pytest.mark.parametrize(
    ("spec", "ledger"),
    [
        ("auto", "CongestRun"),
        pytest.param(AUTO_FLATARRAY, "FastCongestRun", id="auto-flatarray"),
        pytest.param(
            AUTO_NUMPY, "NumpyCongestRun", id="auto-numpy", marks=requires_numpy
        ),
    ],
)
def test_auto_specs_build_the_ledger_they_stand_for(spec, ledger):
    # Otherwise the auto rows above would only re-run the reference ledger.
    run = make_ledger_run(spec, _instance("gnp").graph)
    assert type(run).__name__ == ledger


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
