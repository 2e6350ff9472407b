"""E22 — the vectorized numpy tier on the regular primitives pipeline.

Runs the paper's *regular* communication primitives end-to-end — BFS
tree construction, multi-source Bellman–Ford decomposition, pipelined
broadcast, and convergecast aggregation — on a sparse random connected
graph under the three ledger tiers the ``--backend`` axis selects:

* ``reference`` — a plain :class:`~repro.congest.run.CongestRun` with
  the one Python path per primitive;
* ``flatarray`` — :class:`~repro.perf.FastCongestRun`, the same ledger
  and path under its own type;
* ``numpy`` — :class:`~repro.perf.npkernels.NumpyCongestRun`, whose
  per-round work collapses to integer-dtype array kernels over the CSR
  topology.

Asserts (a) every tier computes the byte-identical execution (BFS tree,
Bellman–Ford distances/tags/parents, rounds, messages, per-edge
traffic, aggregate), and (b) ``numpy`` clears the **≥ 7.5× speedup
bar** over the Python path (``reference``) at n = 4096 — the
acceptance criterion of the numpy tier. The bar was set against the
last measurement taken while ``flatarray`` still had compiled branches
of its own: numpy was 8.84× that path (and 11.66× the plain loops,
against a 10× bar then); 7.5× keeps the same margin. The committed output (``BENCH_numpy.json``) includes an
n = 64 entry so ``repro bench check``'s default size cap re-measures
the e22 driver in CI. Each measurement is
:func:`repro.telemetry.benchcheck.measure_primitives`, the same driver
the gate re-runs against the committed file.

Environment knobs:

* ``E22_SIZES`` — comma-separated node counts (default ``64,1024,4096``).
* ``E22_OUTPUT`` — where to write the JSON (default ``BENCH_numpy.json``
  in the repo root).

Requires the optional numpy extra (the whole module skips without it).
"""

import json
import os
from pathlib import Path

import pytest

from benchmarks.conftest import print_table
from repro.simbackend import numpy_tier_available

if not numpy_tier_available():  # pragma: no cover - numpy-extra CI only
    pytest.skip(
        "optional numpy extra not installed", allow_module_level=True
    )

from repro.telemetry.benchcheck import measure_primitives

SIZES = [
    int(size)
    for size in os.environ.get("E22_SIZES", "64,1024,4096").split(",")
]
OUTPUT = Path(
    os.environ.get(
        "E22_OUTPUT", Path(__file__).resolve().parent.parent / "BENCH_numpy.json"
    )
)
#: Sparse topology: expected degree ~8, so reference finishes at
#: n = 4096 in benchable time while the per-round arrays stay large
#: enough for the vectorization to matter.
WORKLOAD = {
    "pipeline": "regular-primitives",
    "degree": 8,
    "num_sources": 8,
    "num_items": 32,
}
REPEATS = 3
BACKENDS = ("reference", "flatarray", "numpy")
SPEEDUP_BAR = 7.5  # numpy vs the Python path at n = 4096 (acceptance bar)


def measure_all():
    entries = []
    for n in SIZES:
        measured, fingerprints = {}, {}
        best = dict.fromkeys(BACKENDS, float("inf"))
        # Round-robin over the tiers, so a drift in host speed during
        # the sweep reaches every tier alike.
        for _ in range(REPEATS):
            for backend in BACKENDS:
                measured[backend], fingerprints[backend] = measure_primitives(
                    WORKLOAD, n, backend
                )
                best[backend] = min(best[backend], measured[backend]["seconds"])
        for backend in BACKENDS:
            entries.append(
                dict(measured[backend], n=n, backend=backend, seconds=best[backend])
            )
        # Conformance inside the benchmark: byte-identical execution
        # (results *and* dict orders *and* the full per-edge ledger).
        assert len(set(map(repr, fingerprints.values()))) == 1, (
            f"ledger tiers diverged at n={n}"
        )
    return entries


def _seconds(entries, n, backend):
    return next(
        e["seconds"] for e in entries if e["n"] == n and e["backend"] == backend
    )


def test_e22_numpy_primitives(benchmark):
    entries = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    speedups = {
        backend: {
            str(n): _seconds(entries, n, "reference") / _seconds(entries, n, backend)
            for n in SIZES
        }
        for backend in ("flatarray", "numpy")
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
        "E22: regular primitives (BFS + Bellman–Ford + broadcast + "
        f"convergecast), degree≈{WORKLOAD['degree']}, per ledger tier",
        ("n", "backend", "best ms", "rounds", "messages", "speedup"),
        rows,
    )
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(
            {
                "experiment": "e22-numpy",
                "workload": WORKLOAD,
                "sizes": SIZES,
                "repeats": REPEATS,
                "entries": entries,
                "speedup_vs_reference": speedups,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    # Acceptance bar: the vectorized tier is ≥ 7.5× the Python path
    # on the regular-primitives pipeline at n = 4096 (only checked when
    # 4096 is swept — the CI freshness job runs a tiny size).
    if 4096 in SIZES:
        speedup = speedups["numpy"]["4096"]
        assert speedup >= SPEEDUP_BAR, (
            f"numpy primitives speedup at n=4096 is {speedup:.2f}x "
            f"(< {SPEEDUP_BAR}x bar)"
        )
        # And it must beat the flatarray ledger at the top size (the
        # same Python path, measured separately from reference).
        assert speedups["numpy"]["4096"] > speedups["flatarray"]["4096"]
