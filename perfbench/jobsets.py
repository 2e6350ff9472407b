"""The benchmark's workloads: fixed job lists built from the seed.

Every workload runs all seven ``ALGORITHMS`` entries, so every
per-solver metric exists on every workload; the workloads differ in
instance size and mix, which decides the layer that dominates:

* ``solvers-n256`` — gnp n=256 and a 16x16 torus: the graph oracle.
* ``distributed-n2048`` — ``distributed`` at n=2048 (numpy ledger
  tier): the ledger primitives and the solver's Fraction bookkeeping.
  The other six solvers run on a small gnp n=48 companion set, where
  per-job overhead dominates; it keeps the oracle under a tenth of
  the pass.
* ``nightly-store`` — the ``nightly`` suite with its seeds scaled up
  (plus a small ``khan`` scenario, which the suite lacks) against a
  store pre-filled with history rows: the engine and store layers.

The seed enters every scenario name. Names are part of each job's
identity, so the seed sets every cache key and the coin flips of the
randomized solvers, and (``nightly-store``) the synthetic history
rows. Graphs and terminal placements are derived from the grid and
the seed index only, so they are the same on every seed: that keeps
the timings comparable across seeds, which a changing graph would not
(per-seed solver times differ by 10-20% at n=256).
"""

import dataclasses
from typing import Callable, Dict, List, NamedTuple

from repro.engine.algorithms import ALGORITHMS
from repro.engine.registry import ScenarioSpec
from repro.engine.suites import SUITES

#: Every registered solver, in registry order.
SOLVERS = tuple(ALGORITHMS)

#: The seed the pins in ``pins.json`` were taken on.
DEFAULT_SEED = 0


class Workload(NamedTuple):
    """A named job list.

    Attributes:
        name: the ``--workload`` value.
        specs: ``seed -> scenario specs``; the job list is their
            expansion, in order.
        history_rows: synthetic rows pre-filled into the store.
        tier: ``node count -> ledger tier`` that ``make_ledger_run``
            must build for the jobs whose solver takes a ledger (the
            tier guard).
    """

    name: str
    specs: Callable[[int], List[ScenarioSpec]]
    history_rows: int
    tier: Callable[[int], str]


def _named(spec: ScenarioSpec, seed: int, **changes) -> ScenarioSpec:
    return dataclasses.replace(spec, name=f"{spec.name}.s{seed}", **changes)


def _solvers_n256(seed: int) -> List[ScenarioSpec]:
    return [
        _named(ScenarioSpec(
            name="pb-gnp256", family="gnp", algorithms=SOLVERS,
            grid={"n": 256, "p": 0.03, "k": 3, "component_size": 2},
            backend="auto", seeds=1,
        ), seed),
        _named(ScenarioSpec(
            name="pb-torus16", family="torus", algorithms=SOLVERS,
            grid={"rows": 16, "cols": 16, "k": 3, "component_size": 2},
            backend="auto", seeds=1,
        ), seed),
    ]


def _distributed_n2048(seed: int) -> List[ScenarioSpec]:
    return [
        _named(ScenarioSpec(
            name="pb-gnp2048", family="gnp", algorithms=("distributed",),
            grid={"n": 2048, "p": 0.01, "k": [3, 8], "component_size": 2},
            backend="auto", seeds=3,
        ), seed),
        _named(ScenarioSpec(
            name="pb-gnp48", family="gnp",
            algorithms=tuple(a for a in SOLVERS if a != "distributed"),
            grid={"n": 48, "p": 0.1, "k": 3, "component_size": 2},
            backend="auto", seeds=3,
        ), seed),
    ]


#: How many times the nightly suite's seed counts are multiplied.
NIGHTLY_SEED_SCALE = 4


def _nightly_store(seed: int) -> List[ScenarioSpec]:
    specs = [
        _named(spec, seed, seeds=spec.seeds * NIGHTLY_SEED_SCALE)
        for spec in SUITES.get("nightly").scenarios
    ]
    specs.append(_named(ScenarioSpec(
        name="pb-khan-gnp", family="gnp", algorithms=("khan",),
        grid={"n": [12, 16], "p": 0.3, "k": 2, "component_size": 2},
        seeds=2 * NIGHTLY_SEED_SCALE,
    ), seed))
    return specs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("solvers-n256", _solvers_n256, 0, lambda n: "flatarray"),
        Workload(
            "distributed-n2048", _distributed_n2048, 0,
            lambda n: "numpy" if n >= 1024 else "reference",
        ),
        Workload(
            "nightly-store", _nightly_store, 100_000, lambda n: "reference",
        ),
    )
}
