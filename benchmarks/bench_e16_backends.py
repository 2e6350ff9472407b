"""E16 — simulation-backend speedup curves (reference vs flatarray).

Runs FloodMax leader election on G(n, p) across the execution engines
for a sweep of sizes, asserting (a) every backend computes the
identical execution (rounds, ledger messages, elected leaders) and (b)
the ``flatarray`` engine clears the ≥ 3× speedup bar over ``reference``
at n = 256 — the acceptance criterion for the backend subsystem. The
measurements land in ``BENCH_backends.json`` (the first entry in the
repo's perf trajectory; CI regenerates a tiny-size smoke version as an
artifact). Each measurement is
:func:`repro.telemetry.benchcheck.measure_floodmax`, the same driver
``repro bench check`` re-runs against the committed file.

Environment knobs:

* ``E16_SIZES`` — comma-separated node counts (default ``64,128,256``).
* ``E16_OUTPUT`` — where to write the JSON (default
  ``BENCH_backends.json`` in the repo root).
"""

import json
import os
from pathlib import Path

from benchmarks.conftest import print_table
from repro.telemetry.benchcheck import measure_floodmax

SIZES = [
    int(size)
    for size in os.environ.get("E16_SIZES", "64,128,256").split(",")
]
OUTPUT = Path(
    os.environ.get(
        "E16_OUTPUT", Path(__file__).resolve().parent.parent / "BENCH_backends.json"
    )
)
WORKLOAD = {"program": "floodmax", "family": "gnp", "p": 0.35}
REPEATS = 3
BACKENDS = ("reference", "flatarray")
SPEEDUP_BAR = 3.0  # flatarray vs reference at n = 256 (acceptance bar)


def measure_all():
    entries = []
    for n in SIZES:
        fingerprints = {}
        for backend in BACKENDS:
            best = float("inf")
            for _ in range(REPEATS):
                entry, fingerprints[backend] = measure_floodmax(
                    WORKLOAD, n, backend
                )
                best = min(best, entry["seconds"])
            entries.append(dict(entry, n=n, backend=backend, seconds=best))
        # Conformance inside the benchmark: same rounds, traffic, result.
        assert len(set(map(repr, fingerprints.values()))) == 1, (
            f"backends diverged at n={n}: "
            f"{ {k: v[:2] for k, v in fingerprints.items()} }"
        )
    return entries


def _seconds(entries, n, backend):
    return next(
        e["seconds"] for e in entries if e["n"] == n and e["backend"] == backend
    )


def test_e16_backend_speedups(benchmark):
    entries = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    speedups = {
        "flatarray": {
            str(n): _seconds(entries, n, "reference")
            / _seconds(entries, n, "flatarray")
            for n in SIZES
        }
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
        f"E16: FloodMax on G(n, {WORKLOAD['p']}) per execution engine",
        ("n", "backend", "best ms", "rounds", "messages", "speedup"),
        rows,
    )
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(
            {
                "experiment": "e16-backends",
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
    # Acceptance bar: the flat-array fast path is ≥ 3× the reference
    # engine on gnp n=256 FloodMax (only checked when 256 is swept —
    # the CI smoke job runs a tiny size for artifact freshness).
    if 256 in SIZES:
        speedup_256 = speedups["flatarray"]["256"]
        assert speedup_256 >= SPEEDUP_BAR, (
            f"flatarray speedup at n=256 is {speedup_256:.2f}x "
            f"(< {SPEEDUP_BAR}x bar)"
        )
    # The fast path must never lose to the reference engine outright —
    # only asserted at sizes where runs last long enough that scheduler
    # noise cannot flip the comparison (the n=32 CI smoke is exempt).
    assert all(
        speedups["flatarray"][str(n)] >= 1.0 for n in SIZES if n >= 128
    )
