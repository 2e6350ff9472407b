"""Append-only JSONL result store with content-hash caching.

One line per job record. The ``key`` field is the job's content hash
(:attr:`repro.engine.jobs.Job.key`); before executing, the runner makes
one key-only :meth:`select` of the scenario's keys, so re-running an
unchanged spec touches the store only to read, and only its own rows.
JSONL keeps the store greppable, mergeable (concatenation), and safely
appendable without rewriting history.

Two companions keep the flat file honest at scale:

* **Schema migration** (:mod:`repro.engine.migration`): every row read
  back is normalized to the current schema by the declarative
  :data:`~repro.engine.migration.CHAIN` — one registered
  :class:`~repro.engine.migration.MigrationStep` per version bump,
  validated gapless at import time. Old rows keep their cache keys
  (default-valued jobs hash identically), so old stores keep absorbing
  re-runs.
* **Sidecar index** (:mod:`repro.engine.index`): a sqlite file next to
  the store maps cache key → byte offset, making :meth:`keys`,
  :meth:`lookup` and key-only :meth:`select` O(log n) probes plus
  seek-reads instead of full-file scans. The index is disposable and
  self-healing — growth is absorbed incrementally, and a rewrite of
  the file (detected by content fingerprint) triggers a rebuild. Pass
  ``index=False`` to force pure scans (the index-vs-scan equivalence
  is pinned by ``tests/test_store_properties.py``).

Reads stream: :meth:`records` parses the file lazily and never
materializes it, and a torn tail left by a concurrent writer is simply
not yet visible. Writers in other processes become visible on the next
read that syncs the index — call :meth:`refresh` to force a
full-fingerprint re-check (the serve daemon does, see
``SolverService.refresh_store``).
"""

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, KeysView, List, Optional, Tuple

try:  # POSIX advisory locks; absent on some platforms (see append()).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.engine.index import (
    IndexUnavailableError,
    StoreIndex,
    complete_region_end,
    scan_rows,
)
from repro.engine.migration import CHAIN, SCHEMA_VERSION  # noqa: F401 (re-export)


class ResultStore:
    """A persistent store of job records at ``path`` (created on demand).

    Args:
        path: the JSONL file (its sidecar index lives at ``<path>.idx``).
        index: maintain/use the sidecar index (default). With ``False``
            every read is a linear scan — correct, just O(n).
        metrics: optional :class:`~repro.telemetry.MetricsRegistry`;
            lookup and index-maintenance counters land there.
    """

    def __init__(
        self,
        path: os.PathLike,
        index: bool = True,
        metrics: Optional[Any] = None,
    ) -> None:
        self.path = Path(path)
        self.metrics = metrics
        self._use_index = index
        self._index: Optional[StoreIndex] = None

    # -- plumbing --------------------------------------------------------

    def bind_metrics(self, metrics: Any) -> None:
        """Attach a metrics registry after construction (the daemon's)."""
        self.metrics = metrics
        if self._index is not None:
            self._index.metrics = metrics

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _idx(self, verify: bool = False) -> Optional[StoreIndex]:
        """The synced sidecar index, or ``None`` when disabled/broken.

        The first contact always verifies the content fingerprint (a
        stale sidecar from a rewritten file must not survive); later
        syncs use the cheap size probe unless ``verify`` forces it.
        """
        if not self._use_index:
            return None
        try:
            if self._index is None:
                self._index = StoreIndex(self.path, metrics=self.metrics)
                verify = True
            self._index.sync(verify=verify)
            return self._index
        except IndexUnavailableError:
            # Sidecar unwritable/locked-out: degrade to scans for this
            # instance rather than failing reads of a healthy store.
            self._count("engine.store.index.unavailable")
            if self._index is not None:
                self._index.close()
                self._index = None
            self._use_index = False
            return None

    def refresh(self) -> None:
        """Observe other-process writers *now*.

        Streaming reads are always current, but the sidecar's cheap
        staleness probe only watches file size; ``refresh`` forces a
        full fingerprint verification (and rebuild if the file was
        rewritten rather than appended). Long-lived readers — the
        serve daemon's hot map, a watch loop — call this on their
        refresh cadence.
        """
        self._idx(verify=True)

    # -- reading ---------------------------------------------------------

    def scan(self, start: int = 0) -> Iterator[Tuple[int, int, Dict[str, Any]]]:
        """Stream ``(offset, length, migrated_row)`` from byte ``start``.

        The offsets let incremental consumers (the daemon's hot map)
        resume exactly where they left off; a torn tail from a
        concurrent writer is not yielded.
        """
        for offset, length, row in scan_rows(self.path, start):
            yield offset, length, CHAIN.migrate(row)

    def records(self, start: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield every stored record (streaming; nothing materialized)."""
        for _, _, row in self.scan(start):
            yield row

    def tail_offset(self) -> int:
        """Byte offset just past the last complete row (resume cursor)."""
        index = self._idx()
        if index is not None:
            return index.indexed_bytes()
        return complete_region_end(self.path)

    def keys(self) -> KeysView[str]:
        """The cache keys of every stored record.

        This reads the whole index (or file), so its cost grows with
        the store. It is for callers that need the full set, such as
        an inventory of a store. To test a few keys, use a key-only
        :meth:`select`, as the runner does.

        A view of a str-keyed dict, which the garbage collector skips;
        it walks a young set of 10^5 keys in each collection (7-9 ms).
        """
        index = self._idx()
        if index is not None:
            return index.keys()
        return dict.fromkeys(r["key"] for r in self.records()).keys()

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The first stored record for ``key``, or ``None``.

        Indexed: one B-tree probe plus one seek-read. Unindexed: a
        linear scan with early exit.
        """
        index = self._idx()
        if index is not None:
            span = index.lookup(key)
            if span is None:
                return None
            self._count("engine.store.lookup.indexed")
            return self._read_spans([span])[0]
        self._count("engine.store.lookup.scan")
        for record in self.records():
            if record.get("key") == key:
                return record
        return None

    def _read_spans(
        self, spans: List[Tuple[int, int]]
    ) -> List[Dict[str, Any]]:
        """Seek-read rows at ``(offset, length)`` spans (file order)."""
        if not spans:
            # Nothing to read, and the file may not exist yet.
            return []
        out = []
        with self.path.open("rb") as handle:
            for offset, length in spans:
                handle.seek(offset)
                out.append(
                    CHAIN.migrate(json.loads(handle.read(length)))
                )
        return out

    def select(
        self,
        scenario: Optional[str] = None,
        keys: Optional[Iterable[str]] = None,
        network: Optional[str] = None,
        backend: Optional[str] = None,
        placement: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Records filtered by scenario, network model name, backend
        engine name, placement strategy, and/or an explicit key set.

        A *key-only* select (no other filter) returns the first stored
        record per requested key, in file order — served by the index
        as seek-reads when available. Filtered selects stream-scan the
        file and return every matching row.
        """
        wanted = set(keys) if keys is not None else None
        key_only = wanted is not None and all(
            value is None for value in (scenario, network, backend, placement)
        )
        if key_only:
            index = self._idx()
            if index is not None:
                self._count("engine.store.lookup.indexed", len(wanted))
                return self._read_spans(index.lookup_many(sorted(wanted)))
            # Scan fallback with identical first-occurrence semantics.
            self._count("engine.store.lookup.scan", len(wanted))
            out = []
            remaining = set(wanted)
            for record in self.records():
                if record.get("key") in remaining:
                    remaining.discard(record["key"])
                    out.append(record)
                    if not remaining:
                        break
            return out
        out = []
        for record in self.records():
            if scenario is not None and record.get("scenario") != scenario:
                continue
            if network is not None and record.get("network_model") != network:
                continue
            if backend is not None and record.get("backend_name") != backend:
                continue
            if placement is not None and record.get("placement") != placement:
                continue
            if wanted is not None and record["key"] not in wanted:
                continue
            out.append(record)
        return out

    def __len__(self) -> int:
        index = self._idx()
        if index is not None:
            return index.row_count()
        return sum(1 for _ in self.records())

    # -- writing ---------------------------------------------------------

    def append(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append records (stamped with the schema version); returns count.

        Input dicts are not mutated; the stamped copies land in the
        file, and an already-materialized sidecar index absorbs them
        incrementally (a lazy index simply catches up on first read).

        Concurrent-writer safe: the whole batch is serialized to one
        buffer and written through an ``O_APPEND`` descriptor under an
        advisory ``flock`` (where available), so a daemon and a CLI
        sweep appending to the same store cannot interleave partial
        rows (pinned by ``tests/test_store_concurrency.py``).
        """
        rows = []
        for record in records:
            row = CHAIN.migrate(dict(record))
            row.setdefault("schema", SCHEMA_VERSION)
            rows.append(row)
        if not rows:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        blob = "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows
        ).encode("utf-8")
        fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                # One buffer, one descriptor: O_APPEND positions each
                # write at EOF atomically, and the lock serializes the
                # (rare) multi-write case for large batches.
                while blob:
                    written = os.write(fd, blob)
                    blob = blob[written:]
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        if self._index is not None and self._use_index:
            try:
                self._index.sync()
            except IndexUnavailableError:
                self._count("engine.store.index.unavailable")
                self._index.close()
                self._index = None
                self._use_index = False
        return len(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.path)!r})"
