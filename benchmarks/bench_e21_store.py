"""E21 — indexed vs full-scan cache-key lookup on the result store.

The runner's cache check and the serve daemon's hot-map preload both
reduce to "fetch the record for this content-hash key". Historically
that was a full-file JSONL parse per reader; the sidecar index
(:mod:`repro.engine.index`) turns it into a B-tree probe plus one
seek-read. This benchmark pins the win: the same deterministic lookup
mix (:mod:`repro.engine.storebench`) against the same synthetic store
at 10^3 / 10^4 / 10^5 rows, once through pure scans and once through
the index. A third ``scenario`` row times the read a sweep makes per
scenario (``run_spec``): one key-only ``select`` of all the keys on a
fresh store.

Committed as ``BENCH_store.json`` and re-measured by ``repro bench
check`` (the ``e21-store`` driver): ``rows`` / ``lookups`` are exact
columns, wall time gets the gate's usual tolerance. Acceptance bar —
asserted only on the full default sweep: indexed lookups must be at
least **20x** faster than scans at 10^5 rows.

Environment knobs:

* ``E21_SIZES`` — comma-separated row counts (default
  ``64,1000,10000,100000``; the ``64`` entry exists so the CI gate,
  which caps at n=64, always has an entry to re-measure).
* ``E21_LOOKUPS`` — lookups timed per entry (default ``16``).
* ``E21_OUTPUT`` — where to write the JSON (default
  ``BENCH_store.json`` in the repo root).
"""

import json
import os
import tempfile
from pathlib import Path

from benchmarks.conftest import print_table
from repro.engine.storebench import (
    DEFAULT_LOOKUPS,
    STORE_MODES,
    build_store,
    measure_mode,
)

SIZES = [
    int(size)
    for size in os.environ.get("E21_SIZES", "64,1000,10000,100000").split(",")
]
LOOKUPS = int(os.environ.get("E21_LOOKUPS", str(DEFAULT_LOOKUPS)))
OUTPUT = Path(
    os.environ.get(
        "E21_OUTPUT", Path(__file__).resolve().parent.parent / "BENCH_store.json"
    )
)
#: Indexed lookups must beat scans by at least this factor at 10^5 rows.
SPEEDUP_BAR = 20.0
BAR_AT_ROWS = 100_000


def measure_all():
    entries = []
    with tempfile.TemporaryDirectory(prefix="repro-e21-") as tmp:
        for rows in SIZES:
            path = Path(tmp) / f"store-{rows}.jsonl"
            build_store(path, rows)  # one store, every mode measures it
            for mode in STORE_MODES:
                entries.append(
                    measure_mode(rows, mode, lookups=LOOKUPS, path=path)
                )
    return entries


def test_e21_store_lookup(benchmark):
    entries = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    by_size = {}
    for entry in entries:
        by_size.setdefault(entry["rows"], {})[entry["backend"]] = entry
    speedups = {
        str(rows): (
            modes["scan"]["seconds"] / modes["indexed"]["seconds"]
            if modes["indexed"]["seconds"] > 0
            else float("inf")
        )
        for rows, modes in by_size.items()
    }
    print_table(
        f"E21: {LOOKUPS} cache-key lookups, indexed vs full scan",
        ("rows", "mode", "seconds", "per lookup", "build", "speedup"),
        [
            (
                entry["rows"],
                entry["backend"],
                f"{entry['seconds']:.4f}",
                f"{entry['per_lookup_ms']:.3f} ms",
                f"{entry['build_seconds']:.3f}s",
                f"{speedups[str(entry['rows'])]:.1f}x"
                if entry["backend"] == "indexed"
                else "",
            )
            for entry in entries
        ],
    )
    for entry in entries:
        assert entry["found"] == entry["lookups"], (
            f"{entry['backend']}@{entry['rows']}: "
            f"{entry['found']}/{entry['lookups']} lookups found their row"
        )
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(
            {
                "experiment": "e21-store",
                "workload": {"lookups": LOOKUPS},
                "entries": entries,
                "speedups": speedups,
                "speedup_bar": SPEEDUP_BAR,
                "bar_at_rows": BAR_AT_ROWS,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    # Acceptance bar (only on the full default sweep — a reduced E21_*
    # environment is an artifact-freshness run, not a judgment).
    if BAR_AT_ROWS in by_size and LOOKUPS >= DEFAULT_LOOKUPS:
        speedup = speedups[str(BAR_AT_ROWS)]
        assert speedup >= SPEEDUP_BAR, (
            f"indexed lookup is only {speedup:.1f}x faster than a full "
            f"scan at {BAR_AT_ROWS} rows (bar {SPEEDUP_BAR}x)"
        )
