"""Concurrent-writer safety of :class:`ResultStore` JSONL appends —
and of the sidecar index reading underneath them.

Two real writer processes hammer one store file through the locked
append path (``flock`` + single ``O_APPEND`` write in
:meth:`ResultStore.append`). Torn or interleaved writes would surface
as unparseable lines or a wrong row count — exactly what the daemon's
multi-process smoke relies on never happening.

The index half: a reader syncing :class:`StoreIndex` mid-hammer must
always observe a **consistent prefix** (every indexed key's seek-read
parses to a whole row), and an index left stale by out-of-band appends
or a file rewrite must detect and heal itself on the next access.
"""

import json
import multiprocessing

from repro.engine.index import StoreIndex, scan_rows
from repro.engine.jobs import expand_jobs
from repro.engine.registry import ScenarioSpec
from repro.engine.runner import execute_job, run_spec
from repro.engine.store import ResultStore

WRITERS = 2
BATCHES = 60
ROWS_PER_BATCH = 5


def _sweep_spec(name):
    return ScenarioSpec(
        name=name,
        family="gnp",
        algorithms=("moat",),
        grid={"n": [8, 9, 10], "p": 0.4, "k": 2, "component_size": 2},
        seeds=1,
    )


def _writer(path, tag, barrier):
    store = ResultStore(path)
    barrier.wait()  # maximize overlap between the two writers
    for batch in range(BATCHES):
        store.append([
            {
                "key": f"{tag}-{batch}-{row}",
                "scenario": "concurrency",
                # Fat enough that an unlocked write would straddle a
                # pipe/page boundary and tear visibly.
                "padding": "x" * 512,
                "metrics": {"wall_time": 0.0},
            }
            for row in range(ROWS_PER_BATCH)
        ])


def test_two_writer_processes_never_tear_rows(tmp_path):
    path = tmp_path / "store.jsonl"
    barrier = multiprocessing.Barrier(WRITERS)
    processes = [
        multiprocessing.Process(target=_writer, args=(str(path), f"w{i}", barrier))
        for i in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(120)
        assert process.exitcode == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    expected = WRITERS * BATCHES * ROWS_PER_BATCH
    assert len(lines) == expected
    keys = [json.loads(line)["key"] for line in lines]  # every line parses
    assert len(set(keys)) == expected
    # A batch's rows land contiguously: the lock covers the whole append.
    for start in range(0, expected, ROWS_PER_BATCH):
        batch = keys[start:start + ROWS_PER_BATCH]
        prefix = batch[0].rsplit("-", 1)[0]
        assert all(key.rsplit("-", 1)[0] == prefix for key in batch)
    # And the store reads its own concurrent output back cleanly.
    assert len(ResultStore(path)) == expected


def _indexing_reader(path, stop, failures):
    """Repeatedly sync the sidecar against the growing file and verify
    every answer is a consistent prefix: row counts never regress and a
    sampled indexed key seek-reads to a whole, parseable row."""
    index = StoreIndex(path)
    last_rows = 0
    try:
        while not stop.is_set():
            index.sync()
            status = index.status()
            if status["rows"] < last_rows:
                failures.put(f"rows regressed {last_rows} -> {status['rows']}")
                return
            last_rows = status["rows"]
            for key in list(index.keys())[:5]:
                span = index.lookup(key)
                if span is None:
                    failures.put(f"indexed key {key!r} vanished")
                    return
                offset, length = span
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    blob = handle.read(length)
                row = json.loads(blob)  # whole row, never a torn span
                if row["key"] != key:
                    failures.put(f"seek-read for {key!r} hit {row['key']!r}")
                    return
    except Exception as error:  # noqa: BLE001 - reported to the parent
        failures.put(f"{type(error).__name__}: {error}")


def test_index_reader_sees_consistent_prefix_under_two_writers(tmp_path):
    path = tmp_path / "store.jsonl"
    path.touch()
    barrier = multiprocessing.Barrier(WRITERS)
    stop = multiprocessing.Event()
    failures = multiprocessing.Queue()
    writers = [
        multiprocessing.Process(target=_writer, args=(str(path), f"w{i}", barrier))
        for i in range(WRITERS)
    ]
    reader = multiprocessing.Process(
        target=_indexing_reader, args=(str(path), stop, failures)
    )
    reader.start()
    for process in writers:
        process.start()
    for process in writers:
        process.join(120)
        assert process.exitcode == 0
    stop.set()
    reader.join(120)
    assert reader.exitcode == 0
    assert failures.empty(), failures.get()
    # After the dust settles one sync absorbs everything the writers
    # appended; the reader's incremental syncs and this full one agree.
    expected = WRITERS * BATCHES * ROWS_PER_BATCH
    index = StoreIndex(path)
    index.sync()
    assert index.status()["rows"] == expected
    assert index.row_count() == expected


def test_out_of_band_append_is_detected_and_absorbed(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.append([{"key": f"seed-{i}", "scenario": "stale"} for i in range(4)])
    assert len(store.keys()) == 4  # sidecar materialized

    # Another process appends without telling our index.
    other = ResultStore(path, index=False)
    other.append([{"key": f"late-{i}", "scenario": "stale"} for i in range(3)])

    # The cheap size probe notices the growth on the next access.
    assert len(store.keys()) == 7
    assert store.lookup("late-2") is not None
    # refresh() is the explicit, fingerprint-verified variant.
    store.refresh()
    assert len(store) == 7


def test_rewritten_file_triggers_full_rebuild(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.append([{"key": f"old-{i}", "scenario": "rewrite"} for i in range(6)])
    store.keys()
    assert StoreIndex(path).status()["state"] == "fresh"

    # Out-of-band rewrite padded to the exact original byte count:
    # the cheap size probe can't see it, the content fingerprint can.
    original_size = path.stat().st_size
    bare = [
        {"key": f"new-{i}", "scenario": "rewrite", "schema": 5}
        for i in range(6)
    ]
    body = "".join(json.dumps(row, sort_keys=True) + "\n" for row in bare)
    pad = original_size - len(body.encode("utf-8"))
    overhead = len(json.dumps({"key": "pad", "pad": ""})) + 1  # + newline
    assert pad > overhead, "store rows shrank; re-shape this test"
    body += json.dumps({"key": "pad", "pad": "x" * (pad - overhead)}) + "\n"
    path.write_text(body, encoding="utf-8")
    assert path.stat().st_size == original_size

    store.refresh()
    assert set(store.keys()) == {f"new-{i}" for i in range(6)} | {"pad"}
    assert store.lookup("old-0") is None
    assert StoreIndex(path).status()["rows"] == 7


def test_torn_tail_is_invisible_until_completed(tmp_path):
    """A half-written final line (writer died mid-append) is never
    indexed or yielded; finishing the line makes it appear."""
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    store.append([{"key": "whole", "scenario": "torn"}])
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"key": "torn-row", "scenario": "to')  # no newline

    store.refresh()
    assert set(store.keys()) == {"whole"}
    assert [row["key"] for _, _, row in scan_rows(path)] == ["whole"]

    with path.open("a", encoding="utf-8") as handle:
        handle.write('rn"}\n')
    store.refresh()
    assert set(store.keys()) == {"whole", "torn-row"}
    assert store.lookup("torn-row")["scenario"] == "torn"


def test_sweep_sees_out_of_band_rows_as_hits(tmp_path):
    """Rows another process appends between two sweeps are hits for the
    second sweep's key probe, through the same (already synced) index."""
    path = tmp_path / "store.jsonl"
    store = ResultStore(path)
    first = run_spec(_sweep_spec("first"), store=store, parallel=False)
    assert (first.executed, first.cached) == (3, 0)

    second = _sweep_spec("second")
    rows = [execute_job(job.to_dict()) for job in expand_jobs(second)]
    ResultStore(path, index=False).append(rows)  # out-of-band writer

    stats = run_spec(second, store=store, parallel=False)
    assert (stats.executed, stats.cached) == (0, 3)
    assert [r["metrics"]["weight"] for r in stats.records] \
        == [r["metrics"]["weight"] for r in rows]


def test_sweep_does_not_hit_a_torn_tail(tmp_path):
    """A job whose row is still mid-write is not a hit: the probe never
    sees the torn tail, so the sweep runs that job itself."""
    path = tmp_path / "store.jsonl"
    spec = _sweep_spec("torn")
    jobs = expand_jobs(spec)
    rows = [execute_job(job.to_dict()) for job in jobs]
    store = ResultStore(path)
    store.append(rows[:-1])
    line = json.dumps(rows[-1], sort_keys=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line[: len(line) // 2])  # no newline

    stats = run_spec(spec, store=store, parallel=False)
    assert (stats.executed, stats.cached) == (1, len(jobs) - 1)
    assert [r["key"] for r in stats.records] == [job.key for job in jobs]
