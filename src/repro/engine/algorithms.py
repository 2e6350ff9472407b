"""The algorithm registry — one table shared by the CLI, engine, and benchmarks.

Every entry wraps a solver behind one contract,
``run(instance, rng, run=None, profiler=None, **params) -> SolveResult``.
``run`` is the :class:`~repro.congest.run.CongestRun` ledger a CONGEST
solver charges (``None``: the solver builds a plain one). ``profiler``
is the :class:`~repro.perf.PhaseProfiler` the centralized solvers
(``moat``, ``rounded``, no ledger) open wall-time spans on; a ledger
solver reports through the profiler attached to its ledger.

Tunable solver parameters (e.g. Algorithm 2's ε) are passed as keyword
arguments. Fractional parameters travel as strings ("1/10") so job records
stay JSON-serializable and exactly reproducible; the solvers convert them
with :class:`fractions.Fraction`.
"""

import random
from fractions import Fraction
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Union

from repro.baselines import khan_steiner_forest, spanner_steiner_forest
from repro.congest.run import CongestRun
from repro.core import (
    distributed_moat_growing,
    moat_growing,
    rounded_moat_growing,
    sublinear_moat_growing,
)
from repro.core.rounded import num_growth_phases
from repro.model.instance import SteinerForestInstance
from repro.model.solution import ForestSolution
from repro.randomized import randomized_steiner_forest

EpsParam = Union[int, float, str, Fraction]
Ledger = Optional[CongestRun]


class SolveResult(NamedTuple):
    """A solver's solution, the ledger it charged (``None`` for the
    centralized solvers), and its own record columns."""

    solution: ForestSolution
    run: Ledger
    metrics: Dict[str, int]

    @property
    def rounds(self) -> Optional[int]:
        return None if self.run is None else self.run.rounds


class AlgorithmSpec(NamedTuple):
    """A registered solver.

    Attributes:
        name: registry key.
        run: the :class:`SolveResult` adapter (module docstring).
        randomized: whether the result depends on the supplied rng.
        accepts_run: the solver charges a CONGEST ledger, so the engine
            hands it :func:`repro.perf.make_ledger_run`'s ledger for the
            job's backend (with the profiler attached when profiling).
        description: one-line summary for ``--list`` output.
    """

    name: str
    run: Callable[..., SolveResult]
    randomized: bool = False
    accepts_run: bool = False
    description: str = ""


def _ledger_result(result: Any, **metrics: int) -> SolveResult:
    return SolveResult(result.solution, result.run, metrics)


def _run_moat(inst: SteinerForestInstance, rng: random.Random,
              run: Ledger = None, profiler: Any = None) -> SolveResult:
    result = moat_growing(inst, profiler=profiler)
    return SolveResult(
        result.solution, None, {"num_merge_phases": result.num_merge_phases}
    )


def _run_rounded(inst: SteinerForestInstance, rng: random.Random,
                 run: Ledger = None, profiler: Any = None,
                 eps: EpsParam = "1/2") -> SolveResult:
    result = rounded_moat_growing(inst, eps, profiler=profiler)
    return SolveResult(result.solution, None, {
        "num_merge_phases": result.num_merge_phases,
        "growth_phases": num_growth_phases(result),
    })


def _run_distributed(inst: SteinerForestInstance, rng: random.Random,
                     run: Ledger = None, profiler: Any = None) -> SolveResult:
    result = distributed_moat_growing(inst, run=run)
    return _ledger_result(result, num_phases=result.num_phases)


def _run_sublinear(inst: SteinerForestInstance, rng: random.Random,
                   run: Ledger = None, profiler: Any = None,
                   eps: EpsParam = "1/2") -> SolveResult:
    result = sublinear_moat_growing(inst, eps, run=run)
    return _ledger_result(
        result,
        sigma=result.sigma,
        num_growth_phases=result.num_growth_phases,
        num_merge_phases=result.num_merge_phases,
    )


def _run_randomized(inst: SteinerForestInstance, rng: random.Random,
                    run: Ledger = None, profiler: Any = None) -> SolveResult:
    return _ledger_result(randomized_steiner_forest(inst, rng=rng, run=run))


def _run_khan(inst: SteinerForestInstance, rng: random.Random,
              run: Ledger = None, profiler: Any = None) -> SolveResult:
    return _ledger_result(khan_steiner_forest(inst, rng=rng, run=run))


def _run_spanner(inst: SteinerForestInstance, rng: random.Random,
                 run: Ledger = None, profiler: Any = None) -> SolveResult:
    return _ledger_result(spanner_steiner_forest(inst, run=run))


ALGORITHMS: Mapping[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            "moat",
            _run_moat,
            description="centralized Algorithm 1 (2-approx, Theorem 4.1)",
        ),
        AlgorithmSpec(
            "rounded",
            _run_rounded,
            description="Algorithm 2, rounded radii ((2+ε)-approx)",
        ),
        AlgorithmSpec(
            "distributed",
            _run_distributed,
            accepts_run=True,
            description="Section 4.1 distributed emulation (O(ks+t) rounds)",
        ),
        AlgorithmSpec(
            "sublinear",
            _run_sublinear,
            accepts_run=True,
            description="Section 4.2 variant (Õ(sk+√min{st,n}) rounds)",
        ),
        AlgorithmSpec(
            "randomized",
            _run_randomized,
            randomized=True,
            accepts_run=True,
            description="Section 5 randomized embedding algorithm",
        ),
        AlgorithmSpec(
            "khan",
            _run_khan,
            randomized=True,
            accepts_run=True,
            description="[14] baseline (tree-embedding Steiner forest)",
        ),
        AlgorithmSpec(
            "spanner",
            _run_spanner,
            accepts_run=True,
            description="spanner-based baseline",
        ),
    )
}
