"""Sidecar key index over an append-only JSONL result store.

The JSONL file stays the single source of truth — append-only,
greppable, mergeable by concatenation. This module maintains a sqlite
sidecar next to it (``<store>.jsonl.idx``) mapping each cache key to
the **byte offset and length of its first row**, so ``keys()`` and
key lookups become O(log n) B-tree probes plus one seek-read instead
of a full-file parse (measured in ``benchmarks/bench_e21_store.py``).

Invariants:

* **The index is disposable.** Deleting the sidecar loses nothing;
  the next reader rebuilds it from the JSONL. Nothing ever reads the
  sidecar as data — only as an accelerator.
* **Staleness is detected, never trusted away.** The sidecar records
  how many bytes of the store it has indexed plus a content
  fingerprint of that region (head + tail sample hashes). On every
  sync: growth beyond the indexed region is absorbed incrementally
  (only new bytes are parsed); a shrink or a fingerprint mismatch —
  the file was rewritten, not appended — triggers a full rebuild.
* **Torn tails are invisible.** A concurrent writer's in-flight row
  (no trailing newline yet, or an unparseable terminated fragment)
  is never indexed; the indexed region always ends on a complete row
  boundary, so readers see a consistent prefix of the store
  (``tests/test_store_concurrency.py``).
* **First occurrence wins.** Append-only stores can accumulate
  duplicate keys (two processes racing the same job); the index keeps
  the earliest row, matching the scan-order ``setdefault`` the runner
  has always used.
* **Multi-process safe.** Sync runs inside one ``BEGIN IMMEDIATE``
  transaction that re-checks the meta row it planned against and
  retries if another process synced first; sqlite's own locking (5 s
  busy timeout) serializes the writers.
"""

import hashlib
import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Dict, Iterator, KeysView, List, Optional, Tuple

#: Bytes hashed from each end of the indexed region for the fingerprint.
_SAMPLE_BYTES = 4096

#: sqlite variable cap is 999 by default; chunk IN (...) queries well under.
_IN_CHUNK = 500

_DDL = """
CREATE TABLE IF NOT EXISTS entries (
    key    TEXT PRIMARY KEY,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    id            INTEGER PRIMARY KEY CHECK (id = 1),
    indexed_bytes INTEGER NOT NULL,
    rows          INTEGER NOT NULL,
    fingerprint   TEXT NOT NULL
);
"""


class IndexUnavailableError(RuntimeError):
    """The sidecar cannot be opened/written; callers fall back to scans."""


def scan_rows(
    path: Path, start: int = 0
) -> Iterator[Tuple[int, int, Dict[str, Any]]]:
    """Yield ``(offset, length, row)`` for every complete JSONL row.

    Tolerant of a concurrent appender: an unterminated final line (a
    row mid-write) is skipped, as is a terminated-but-unparseable tail
    fragment — both belong to the in-flight suffix and will be read
    once complete. An unparseable line *followed by more complete
    rows* is real corruption and raises ``ValueError``.
    """
    if not path.exists():
        return
    pending: Optional[Tuple[int, int, str]] = None
    with path.open("rb") as handle:
        handle.seek(start)
        offset = start
        for raw in handle:
            length = len(raw)
            if not raw.endswith(b"\n"):
                break  # torn tail: a writer is mid-row
            line = raw.strip()
            if line:
                if pending is not None:
                    # The previous bad line was not the tail after all.
                    raise ValueError(
                        f"{path}: unparseable row at byte {pending[0]}"
                    )
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    pending = (offset, length, "bad")
                    offset += length
                    continue
                yield offset, length, row
            offset += length


def complete_region_end(path: Path, start: int = 0) -> int:
    """Byte offset just past the last complete row at or after ``start``."""
    end = start
    for offset, length, _ in scan_rows(path, start):
        end = offset + length
    return end


class StoreIndex:
    """The sqlite sidecar for one store file (see module docstring)."""

    def __init__(
        self,
        store_path: os.PathLike,
        sidecar: Optional[os.PathLike] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.store_path = Path(store_path)
        self.sidecar = (
            Path(sidecar)
            if sidecar is not None
            else Path(str(self.store_path) + ".idx")
        )
        self.metrics = metrics
        self._conn: Optional[sqlite3.Connection] = None

    # -- plumbing --------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            try:
                self.sidecar.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(self.sidecar, timeout=5.0)
                conn.executescript(_DDL)
                conn.commit()
            except (sqlite3.Error, OSError) as exc:
                raise IndexUnavailableError(
                    f"cannot open store index {self.sidecar}: {exc}"
                ) from exc
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _meta(self, conn: sqlite3.Connection) -> Tuple[int, int, str]:
        row = conn.execute(
            "SELECT indexed_bytes, rows, fingerprint FROM meta WHERE id = 1"
        ).fetchone()
        return (0, 0, "") if row is None else (int(row[0]), int(row[1]), row[2])

    def _fingerprint(self, region_end: int) -> str:
        """Content fingerprint of the store's first ``region_end`` bytes:
        region length + head and tail samples. Append-only growth keeps
        it stable; any rewrite of the region changes it."""
        if region_end <= 0:
            return "empty"
        digest = hashlib.sha256()
        digest.update(str(region_end).encode("ascii"))
        with self.store_path.open("rb") as handle:
            digest.update(handle.read(min(region_end, _SAMPLE_BYTES)))
            tail_start = max(0, region_end - _SAMPLE_BYTES)
            handle.seek(tail_start)
            digest.update(handle.read(region_end - tail_start))
        return digest.hexdigest()

    # -- synchronization -------------------------------------------------

    def sync(self, verify: bool = False, force_rebuild: bool = False) -> None:
        """Bring the sidecar up to date with the store file.

        Growth is absorbed incrementally (only bytes past the indexed
        region are parsed). ``verify=True`` additionally checks the
        indexed region's content fingerprint (a same-size rewrite is
        otherwise invisible to the cheap size probe); a mismatch — or
        a shrink, or ``force_rebuild`` — wipes and re-indexes from
        byte 0.
        """
        conn = self._connect()
        for _ in range(8):
            base_bytes, base_rows, stored_fp = self._meta(conn)
            size = (
                self.store_path.stat().st_size
                if self.store_path.exists()
                else 0
            )
            rebuild = force_rebuild or size < base_bytes
            if not rebuild and verify and base_bytes > 0:
                rebuild = self._fingerprint(base_bytes) != stored_fp
            if not rebuild and size == base_bytes:
                return  # fresh
            start = 0 if rebuild else base_bytes
            entries: List[Tuple[str, int, int]] = []
            new_rows = 0
            end = start
            for offset, length, row in scan_rows(self.store_path, start):
                key = row.get("key")
                if isinstance(key, str):
                    entries.append((key, offset, length))
                new_rows += 1
                end = offset + length
            if not rebuild and end == start:
                return  # only a torn tail past the indexed region
            try:
                conn.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError as exc:
                raise IndexUnavailableError(
                    f"store index {self.sidecar} is locked: {exc}"
                ) from exc
            try:
                current = self._meta(conn)
                if (current[0], current[1]) != (base_bytes, base_rows):
                    conn.rollback()  # another process synced first; replan
                    continue
                if rebuild:
                    conn.execute("DELETE FROM entries")
                    base_rows = 0
                conn.executemany(
                    "INSERT OR IGNORE INTO entries (key, offset, length) "
                    "VALUES (?, ?, ?)",
                    entries,
                )
                conn.execute(
                    "INSERT INTO meta (id, indexed_bytes, rows, fingerprint) "
                    "VALUES (1, ?, ?, ?) "
                    "ON CONFLICT (id) DO UPDATE SET indexed_bytes = ?, "
                    "rows = ?, fingerprint = ?",
                    (end, base_rows + new_rows, self._fingerprint(end)) * 2,
                )
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
            if rebuild:
                self._count("engine.store.index.rebuilds")
            self._count("engine.store.index.synced_rows", new_rows)
            return
        raise IndexUnavailableError(
            f"store index {self.sidecar}: sync kept losing the meta race"
        )

    def rebuild(self) -> None:
        """Wipe and re-index the whole store (``repro store reindex``)."""
        self.sync(force_rebuild=True)

    # -- queries ---------------------------------------------------------

    def keys(self) -> KeysView[str]:
        conn = self._connect()
        rows = conn.execute("SELECT key FROM entries")
        return dict.fromkeys(row[0] for row in rows).keys()

    def lookup(self, key: str) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of the first row for ``key``, if indexed."""
        row = self._connect().execute(
            "SELECT offset, length FROM entries WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else (int(row[0]), int(row[1]))

    def lookup_many(self, keys: List[str]) -> List[Tuple[int, int]]:
        """Offsets for every indexed key in ``keys``, in file order."""
        conn = self._connect()
        spans: List[Tuple[int, int]] = []
        for i in range(0, len(keys), _IN_CHUNK):
            chunk = keys[i:i + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            spans.extend(
                (int(row[0]), int(row[1]))
                for row in conn.execute(
                    f"SELECT offset, length FROM entries WHERE key IN ({marks})",
                    chunk,
                )
            )
        spans.sort()
        return spans

    def row_count(self) -> int:
        """Total complete rows in the indexed region (duplicates included)."""
        return self._meta(self._connect())[1]

    def distinct_keys(self) -> int:
        return int(
            self._connect().execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        )

    def indexed_bytes(self) -> int:
        """End of the indexed region (always a complete-row boundary)."""
        return self._meta(self._connect())[0]

    def status(self) -> Dict[str, Any]:
        """Read-only staleness report for ``repro store inspect``."""
        if not self.sidecar.exists():
            return {"state": "missing", "indexed_bytes": 0, "rows": 0,
                    "keys": 0}
        conn = self._connect()
        indexed, rows, fingerprint = self._meta(conn)
        size = self.store_path.stat().st_size if self.store_path.exists() else 0
        if size < indexed:
            state = "stale-rewritten"
        elif indexed > 0 and self._fingerprint(indexed) != fingerprint:
            state = "stale-rewritten"
        elif size > indexed and complete_region_end(self.store_path, indexed) > indexed:
            state = "stale-behind"
        else:
            state = "fresh"
        return {
            "state": state,
            "indexed_bytes": indexed,
            "rows": rows,
            "keys": self.distinct_keys(),
        }
