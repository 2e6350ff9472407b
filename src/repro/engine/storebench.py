"""Deterministic store construction + lookup measurement for E21.

Shared between ``benchmarks/bench_e21_store.py`` (which commits
``BENCH_store.json``) and the ``repro bench check`` regression gate
(:mod:`repro.telemetry.benchcheck`), the same way
:mod:`repro.serve.loadgen` backs E19/E20: both sides build the exact
same synthetic store and run the exact same lookup mix, so the
committed ``rows`` / ``lookups`` columns are deterministic and the
gate can compare them exactly.

The synthetic rows are shaped like real v5 records (identity fields,
64-hex content key, a metrics dict) so parse cost — the thing a scan
pays and the index doesn't — is realistic.
"""

import hashlib
import random
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.engine.store import SCHEMA_VERSION, ResultStore

#: The lookup modes an entry's ``backend`` column names.
STORE_MODES = ("scan", "indexed", "scenario")

#: Default lookups timed per entry (the gate passes it via workload).
DEFAULT_LOOKUPS = 16

#: Rows per append batch while building (keeps peak memory flat).
_BUILD_BATCH = 2000


def synth_key(index: int, seed: int) -> str:
    """The 64-hex cache key of synthetic row ``index`` (deterministic)."""
    return hashlib.sha256(f"e21|{seed}|{index}".encode("ascii")).hexdigest()


def synth_records(
    count: int, seed: int = 0
) -> Iterator[Dict[str, Any]]:
    """``count`` realistic v5-shaped records, deterministically."""
    rng = random.Random(seed)
    for index in range(count):
        yield {
            "key": synth_key(index, seed),
            "scenario": f"e21-synth-{index % 7}",
            "family": "gnp",
            "family_params": {"n": 64 + index % 192, "p": 0.35},
            "k": 2 + index % 4,
            "component_size": 2,
            "algorithm": ("moat", "distributed", "sublinear")[index % 3],
            "algo_params": {},
            "seed_index": index % 5,
            "exact": False,
            "placement": "uniform",
            "network": {"model": "reliable", "params": {}},
            "network_model": "reliable",
            "backend": {"name": "reference", "params": {}},
            "backend_name": "reference",
            "schema": SCHEMA_VERSION,
            "metrics": {
                "n": 64 + index % 192,
                "m": 200 + index % 800,
                "t": 2 + index % 4,
                "weight": rng.randint(10, 4000),
                "rounds": rng.randint(8, 300),
                "messages": rng.randint(100, 100000),
                "wall_time": rng.random(),
            },
        }


def build_store(path: Path, rows: int, seed: int = 0) -> None:
    """Write ``rows`` synthetic records to a fresh store at ``path``."""
    store = ResultStore(path, index=False)  # plain appends, no sidecar yet
    batch: List[Dict[str, Any]] = []
    for record in synth_records(rows, seed):
        batch.append(record)
        if len(batch) >= _BUILD_BATCH:
            store.append(batch)
            batch = []
    if batch:
        store.append(batch)


def lookup_indices(rows: int, lookups: int, seed: int) -> List[int]:
    """Which row indices each mode looks up (same for both, spread
    across the file so scans pay a representative traversal)."""
    rng = random.Random((seed << 8) ^ rows)
    return [rng.randrange(rows) for _ in range(lookups)]


def measure_mode(
    rows: int,
    mode: str,
    lookups: int = DEFAULT_LOOKUPS,
    seed: int = 0,
    path: Optional[Path] = None,
) -> Dict[str, Any]:
    """One BENCH_store entry: ``lookups`` key fetches against a
    ``rows``-row store in ``mode`` (one of :data:`STORE_MODES`).

    ``scan`` opens the store with the index disabled: every lookup is
    the linear parse-until-found the store historically paid.
    ``indexed`` builds the sidecar first (reported separately as
    ``build_seconds``; a one-time cost amortized over every later
    process) and then times pure index probes + seek-reads. Each
    lookup constructs a fresh :class:`ResultStore` so no in-process
    state carries over — the timed work is exactly what a new reader
    pays. ``scenario`` builds the sidecar the same way, then times the
    one read ``run_spec`` makes per scenario: a single key-only
    ``select`` of all ``lookups`` keys on a fresh store.
    """
    if mode not in STORE_MODES:
        raise ValueError(f"unknown store mode {mode!r}; one of {STORE_MODES}")
    owned: Optional[tempfile.TemporaryDirectory] = None
    if path is None:
        owned = tempfile.TemporaryDirectory(prefix="repro-e21-")
        path = Path(owned.name) / f"store-{rows}.jsonl"
    try:
        if not path.exists():
            build_store(path, rows, seed)
        keys = [
            synth_key(index, seed)
            for index in lookup_indices(rows, lookups, seed)
        ]
        build_seconds = 0.0
        if mode != "scan":
            started = time.perf_counter()
            ResultStore(path).refresh()  # build/sync the sidecar once
            build_seconds = time.perf_counter() - started
        found = 0
        started = time.perf_counter()
        if mode == "scenario":
            hits = {
                record["key"] for record in ResultStore(path).select(keys=keys)
            }
            found = sum(key in hits for key in keys)
        else:
            for key in keys:
                store = ResultStore(path, index=(mode == "indexed"))
                record = store.lookup(key)
                if record is not None and record["key"] == key:
                    found += 1
        seconds = time.perf_counter() - started
        return {
            "backend": mode,
            "n": rows,
            "rows": rows,
            "lookups": len(keys),
            "found": found,
            "seconds": seconds,
            "per_lookup_ms": seconds / len(keys) * 1000 if keys else 0.0,
            "build_seconds": build_seconds,
        }
    finally:
        if owned is not None:
            owned.cleanup()
