"""E18 — profiling the paper pipeline under each ledger engine.

Runs the Section 4.1 distributed Steiner-forest pipeline (BFS setup,
reduced-weight Bellman–Ford decompositions, pipelined filtered upcast,
path selection) end-to-end under the three ledger engines the
``--backend`` axis selects for run-accepting solvers:

* ``reference`` — a plain :class:`~repro.congest.run.CongestRun`;
* ``flatarray`` — :class:`~repro.perf.FastCongestRun`, which runs the
  same one Python path per primitive as ``reference``;
* ``auto`` — the size heuristic (reference below 64 nodes, flatarray
  from there; see :data:`repro.simbackend.AUTO_THRESHOLD_NODES`).

Asserts that every engine computes the byte-identical execution
(solution weight and edges, rounds, messages, per-edge traffic, phase
breakdown). The engines share their code, so their wall times are
recorded but not gated. A :class:`~repro.perf.PhaseProfiler` capture
of the largest instance per engine lands in the JSON alongside the
curves, so ``BENCH_profile.json`` shows *where* the pipeline spends its
rounds/messages/wall-time, not just the total.

Environment knobs:

* ``E18_SIZES`` — comma-separated node counts (default ``64,128,256``).
* ``E18_OUTPUT`` — where to write the JSON (default
  ``BENCH_profile.json`` in the repo root).
"""

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_table
from repro.core.distributed import distributed_moat_growing
from repro.perf import PhaseProfiler, make_ledger_run
from repro.workloads import random_instance

SIZES = [
    int(size)
    for size in os.environ.get("E18_SIZES", "64,128,256").split(",")
]
OUTPUT = Path(
    os.environ.get(
        "E18_OUTPUT", Path(__file__).resolve().parent.parent / "BENCH_profile.json"
    )
)
EDGE_P = 0.35
COMPONENTS = 3
REPEATS = 3
BACKENDS = ("reference", "flatarray", "auto")


def _fingerprint(result):
    """Everything observable about one pipeline execution."""
    return (
        result.solution.weight,
        sorted(result.solution.edges, key=repr),
        result.rounds,
        result.run.messages,
        sorted(result.run.edge_messages.items(), key=repr),
        result.num_phases,
        dict(result.run.phase_rounds),
    )


def _run_once(instance, backend):
    # Ledger construction is inside the clock, so the comparison is
    # end-to-end.
    started = time.perf_counter()
    run = make_ledger_run(backend, instance.graph)
    result = distributed_moat_growing(instance, run=run)
    elapsed = time.perf_counter() - started
    return elapsed, result


def _profile_once(instance, backend):
    run = make_ledger_run(backend, instance.graph)
    profiler = PhaseProfiler()
    profiler.attach(run)
    distributed_moat_growing(instance, run=run)
    profiler.finish()
    return profiler.to_dict(bandwidth_bits=run.bandwidth_bits)


def measure_all():
    entries = []
    profiles = {}
    for n in SIZES:
        instance = random_instance(n, COMPONENTS, random.Random(n), p=EDGE_P)
        fingerprints = {}
        for backend in BACKENDS:
            best = float("inf")
            for _ in range(REPEATS):
                elapsed, result = _run_once(instance, backend)
                best = min(best, elapsed)
                fingerprints[backend] = _fingerprint(result)
            entries.append(
                {
                    "n": n,
                    "backend": backend,
                    "seconds": best,
                    "rounds": fingerprints[backend][2],
                    "messages": fingerprints[backend][3],
                    "weight": fingerprints[backend][0],
                }
            )
        # Conformance inside the benchmark: identical pipeline output.
        assert len(set(map(repr, fingerprints.values()))) == 1, (
            f"ledger engines diverged at n={n}"
        )
        if n == max(SIZES):
            profiles = {
                backend: _profile_once(instance, backend)
                for backend in BACKENDS
            }
    return entries, profiles


def _seconds(entries, n, backend):
    return next(
        e["seconds"] for e in entries if e["n"] == n and e["backend"] == backend
    )


def test_e18_pipeline_profile(benchmark):
    entries, profiles = benchmark.pedantic(
        measure_all, rounds=1, iterations=1
    )
    speedups = {
        backend: {
            str(n): _seconds(entries, n, "reference") / _seconds(entries, n, backend)
            for n in SIZES
        }
        for backend in ("flatarray", "auto")
    }
    rows = [
        (
            entry["n"],
            entry["backend"],
            f"{entry['seconds'] * 1000:.1f}",
            entry["rounds"],
            entry["messages"],
            f"{_seconds(entries, entry['n'], 'reference') / entry['seconds']:.2f}x",
        )
        for entry in entries
    ]
    print_table(
        f"E18: distributed pipeline on G(n, {EDGE_P}), k={COMPONENTS}, "
        "per ledger engine",
        ("n", "backend", "best ms", "rounds", "messages", "speedup"),
        rows,
    )
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(
            {
                "experiment": "e18-profile",
                "workload": {
                    "algorithm": "distributed",
                    "family": "gnp",
                    "p": EDGE_P,
                    "k": COMPONENTS,
                },
                "sizes": SIZES,
                "repeats": REPEATS,
                "entries": entries,
                "speedup_vs_reference": speedups,
                "profiles_at_max_size": profiles,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
