"""Property tests for the result store, its migration chain, and the
sidecar index.

Three laws, checked over hypothesis-generated row populations:

* **migration is idempotent** — ``migrate(migrate(row)) == migrate(row)``
  for arbitrary partial rows from any schema era;
* **the store round-trips** — append → reopen → ``select``/``records``
  returns exactly what went in (modulo normalization, which is itself
  idempotent, so a second round-trip is byte-stable);
* **index and scan agree** — every read the index answers
  (``lookup``, ``keys``, key-only ``select``, ``__len__``) matches the
  pure-scan answer on the same file, including first-occurrence
  semantics under duplicate keys.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.engine.index import StoreIndex, scan_rows
from repro.engine.jobs import canonical_json
from repro.engine.migration import CHAIN, SCHEMA_VERSION
from repro.engine.store import ResultStore

_ident = st.text(
    st.characters(codec="ascii", categories=("Lu", "Ll", "Nd")),
    min_size=1,
    max_size=12,
)

#: Optional axes a historical row may or may not carry, depending on
#: which schema era wrote it. Drawing each independently produces rows
#: no single era ever wrote — migration must normalize those too.
_optional_axes = {
    "network": st.fixed_dictionaries(
        {"model": st.sampled_from(["reliable", "lossy"]), "params": st.just({})}
    ),
    "network_model": st.sampled_from(["reliable", "lossy"]),
    "backend": st.fixed_dictionaries(
        {"name": st.sampled_from(["reference", "flatarray"]), "params": st.just({})}
    ),
    "backend_name": st.sampled_from(["reference", "flatarray"]),
    "placement": st.sampled_from(["uniform", "clustered"]),
    "schema": st.integers(min_value=1, max_value=SCHEMA_VERSION),
}


@st.composite
def partial_rows(draw):
    row = {
        "key": draw(st.text("0123456789abcdef", min_size=8, max_size=16)),
        "scenario": draw(_ident),
        "metrics": {"weight": draw(st.integers(0, 10_000))},
    }
    for axis, strategy in _optional_axes.items():
        if draw(st.booleans()):
            row[axis] = draw(strategy)
    return row


@st.composite
def row_batches(draw):
    """1–12 rows whose keys deliberately collide sometimes, so the
    duplicate-key (first-occurrence-wins) path gets exercised."""
    keys = draw(
        st.lists(
            st.sampled_from([f"{i:064x}" for i in range(6)]),
            min_size=1,
            max_size=12,
        )
    )
    return [
        {
            "key": key,
            "scenario": f"prop-{position}",
            "schema": SCHEMA_VERSION,
            "metrics": {"weight": position},
        }
        for position, key in enumerate(keys)
    ]


class TestMigrationLaws:
    @given(partial_rows())
    @settings(max_examples=60, deadline=None)
    def test_migrate_is_idempotent(self, row):
        once = CHAIN.migrate(json.loads(json.dumps(row)))
        twice = CHAIN.migrate(json.loads(json.dumps(once)))
        assert canonical_json(once) == canonical_json(twice)

    @given(partial_rows())
    @settings(max_examples=60, deadline=None)
    def test_migrate_fills_version_gated_axes_and_keeps_given_values(self, row):
        """Steps at or after the row's version run; earlier ones are
        trusted (a v3 row already promised its network axes)."""
        version = CHAIN.row_version(row)
        filled_from = {"network": 1, "network_model": 1,
                       "backend": 2, "backend_name": 2, "placement": 3}
        migrated = CHAIN.migrate(json.loads(json.dumps(row)))
        for axis, step_from in filled_from.items():
            if version <= step_from:
                assert axis in migrated
            if axis in row:  # present values are never overwritten
                assert migrated[axis] == row[axis]
        # The stored version stamp is read, never rewritten in memory.
        assert migrated.get("schema") == row.get("schema")


class TestStoreRoundTrip:
    @given(st.lists(partial_rows(), min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_append_reopen_select_round_trips(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("prop") / "store.jsonl"
        ResultStore(path, index=False).append(rows)
        reread = list(ResultStore(path, index=False).records())
        assert len(reread) == len(rows)
        for original, stored in zip(rows, reread):
            expected = CHAIN.migrate(json.loads(json.dumps(original)))
            expected.setdefault("schema", SCHEMA_VERSION)
            assert canonical_json(stored) == canonical_json(expected)
        # Normalization is idempotent, so a second hop is byte-stable.
        rehop = tmp_path_factory.mktemp("prop") / "rehop.jsonl"
        ResultStore(rehop, index=False).append(reread)
        rehopped = list(ResultStore(rehop, index=False).records())
        assert [canonical_json(r) for r in rehopped] \
            == [canonical_json(r) for r in reread]


class TestIndexScanEquivalence:
    @given(row_batches())
    @settings(max_examples=25, deadline=None)
    def test_indexed_reads_equal_scan_reads(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("prop") / "store.jsonl"
        ResultStore(path, index=False).append(rows)

        indexed = ResultStore(path, index=True)
        scanning = ResultStore(path, index=False)

        assert indexed.keys() == scanning.keys()
        assert len(indexed) == len(scanning)

        every_key = {row["key"] for row in rows} | {"0" * 64 + "ff"}
        for key in sorted(every_key):
            via_index = indexed.lookup(key)
            via_scan = scanning.lookup(key)
            if via_scan is None:
                assert via_index is None
            else:
                assert canonical_json(via_index) == canonical_json(via_scan)

        picked = indexed.select(keys=every_key)
        expected = scanning.select(keys=every_key)
        assert [canonical_json(r) for r in picked] \
            == [canonical_json(r) for r in expected]
        # First-occurrence-wins: one record per distinct present key,
        # and each carries the earliest writer's payload.
        assert len(picked) == len({row["key"] for row in rows})
        first_weight = {}
        for row in rows:
            first_weight.setdefault(row["key"], row["metrics"]["weight"])
        for record in picked:
            assert record["metrics"]["weight"] == first_weight[record["key"]]

    @given(row_batches())
    @settings(max_examples=15, deadline=None)
    def test_missing_file_and_empty_key_set_agree(self, tmp_path_factory, rows):
        """A key-only select on a store whose file does not exist yet,
        or with no keys at all, is ``[]`` both ways — never an error."""
        path = tmp_path_factory.mktemp("prop") / "store.jsonl"
        wanted = [row["key"] for row in rows]
        for index in (True, False):
            fresh = ResultStore(path, index=index)
            assert fresh.select(keys=wanted) == []
            assert fresh.select(keys=[]) == []
            assert fresh.keys() == set()
        assert not path.exists()

        ResultStore(path, index=False).append(rows)
        assert ResultStore(path, index=True).select(keys=[]) == []
        assert ResultStore(path, index=False).select(keys=[]) == []

    @given(row_batches(), row_batches())
    @settings(max_examples=15, deadline=None)
    def test_out_of_band_growth_is_absorbed(self, tmp_path_factory, first, second):
        """An index synced before an out-of-band append still answers
        correctly after: the size probe detects growth and absorbs the
        new tail incrementally."""
        path = tmp_path_factory.mktemp("prop") / "store.jsonl"
        ResultStore(path, index=False).append(first)
        indexed = ResultStore(path, index=True)
        indexed.keys()  # materialize the sidecar on the first region

        ResultStore(path, index=False).append(second)  # out-of-band writer

        expected_keys = {row["key"] for row in first + second}
        assert set(indexed.keys()) == expected_keys
        assert StoreIndex(path).status()["rows"] == len(first) + len(second)
        assert sum(1 for _ in scan_rows(path)) == len(first) + len(second)
