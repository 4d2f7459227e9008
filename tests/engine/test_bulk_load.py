"""``Database.load`` and ``TableData.insert_many`` against the per-row path.

``load`` checks each row's arity but runs ``ColumnType.accepts`` once
per (column, Python class) and stores the rows with one
``insert_many``; the reference here is the loop it replaced, one
``insert_row`` per row. Random tables cover every column type with
NULLs, ``bool`` in INT columns (rejected), ints in FLOAT columns
(accepted) and the occasional wrong-arity row, so the first-bad-row
contract is exercised as often as the clean path. Seeds come from
``tests/seeding.py``; rerun with ``--base-seed=N``.
"""

import random

import pytest

from repro.engine import plan
from repro.engine.database import Database
from repro.engine.wal import MAGIC, encode_frame, recover_database
from repro.errors import ExecutionError, SchemaError
from repro.schema.catalog import ColumnType, schema_from_spec
from tests.seeding import derive_seed

CASES = 40

_GOOD = {
    ColumnType.INT: lambda rng: rng.randint(-10**12, 10**12),
    ColumnType.FLOAT: lambda rng: rng.choice(
        (rng.uniform(-1e6, 1e6), rng.randint(-50, 50))
    ),
    ColumnType.STRING: lambda rng: rng.choice(("", "a", "b c", "é", "x" * 5)),
    ColumnType.BOOL: lambda rng: rng.random() < 0.5,
}

#: values the column type rejects
_BAD = {
    ColumnType.INT: (True, False, 1.5, "1"),
    ColumnType.FLOAT: (True, "2.0"),
    ColumnType.STRING: (3, 0.5, False),
    ColumnType.BOOL: (0, 1, "true"),
}


def random_case(seed: int):
    """A schema with one random table ``r``, preloaded rows and the rows
    to load (NULLs, ints in FLOAT columns, sometimes one bad value or
    one wrong-arity row)."""
    rng = random.Random(seed)
    kinds = [rng.choice(list(ColumnType)) for __ in range(rng.randint(1, 5))]
    spec = {"r": [f"c{i}:{kind.value}" for i, kind in enumerate(kinds)]}
    schema = schema_from_spec(spec)

    def row():
        return tuple(
            None if rng.random() < 0.15 else _GOOD[kind](rng) for kind in kinds
        )

    preload = [row() for __ in range(rng.randint(0, 10))]
    rows = [row() for __ in range(rng.randint(1, 40))]
    fault = rng.random()
    if fault < 0.3:
        at, column = rng.randrange(len(rows)), rng.randrange(len(kinds))
        bad = list(rows[at])
        bad[column] = rng.choice(_BAD[kinds[column]])
        rows[at] = tuple(bad)
    elif fault < 0.4:
        at = rng.randrange(len(rows))
        rows[at] = rows[at] + (1,) if rng.random() < 0.5 else rows[at][:-1]
    if rng.random() < 0.3:
        rows = [list(values) for values in rows]
    return schema, preload, rows


def reference_load(database: Database, table: str, rows) -> list[int]:
    """The per-row loop ``load`` replaced."""
    return [database.insert_row(table, tuple(row)) for row in rows]


def outcome(load, database: Database, table: str, rows):
    try:
        return load(database, table, rows), None
    except (SchemaError, ExecutionError) as error:
        return None, (type(error), str(error))


def assert_same_state(bulk: Database, reference: Database) -> None:
    assert bulk._next_tid == reference._next_tid
    assert bulk.canonical() == reference.canonical()
    for name in bulk.schema.table_names:
        assert bulk.table(name).items() == reference.table(name).items()


def fresh(schema, preload) -> Database:
    database = Database(schema)
    for values in preload:
        database.insert_row("r", values)
    return database


@pytest.mark.parametrize("case", range(CASES))
def test_load_matches_per_row_inserts(case):
    schema, preload, rows = random_case(derive_seed("bulk-load", case))
    bulk, reference = fresh(schema, preload), fresh(schema, preload)
    got = outcome(Database.load, bulk, "r", rows)
    expected = outcome(reference_load, reference, "r", rows)
    assert got == expected
    assert_same_state(bulk, reference)


@pytest.mark.parametrize("case", range(CASES // 2))
def test_load_maintains_a_live_equality_index(case):
    schema, preload, rows = random_case(derive_seed("bulk-load-index", case))
    databases = fresh(schema, preload), fresh(schema, preload)
    counts = []
    for database, load in zip(databases, (Database.load, reference_load)):
        database.table("r").equality_index((0,))
        plan.STATS.reset()
        outcome(load, database, "r", rows)
        counts.append(plan.STATS.index_maintains)
    bulk, reference = databases
    assert counts[0] == counts[1]
    assert bulk.table("r")._indexes.buckets == reference.table("r")._indexes.buckets
    assert bulk.table("r")._indexes.tids == reference.table("r")._indexes.tids
    assert_same_state(bulk, reference)
    # The maintained index is the one a rebuild would produce.
    rebuilt = fresh(schema, [])
    for tid, values in bulk.table("r").items():
        rebuilt.table("r").insert(tid, values)
    assert bulk.table("r").equality_index((0,)) == rebuilt.table(
        "r"
    ).equality_index((0,))


@pytest.mark.parametrize("case", range(CASES // 2))
def test_load_leaves_a_snapshot_unchanged(case):
    schema, preload, rows = random_case(derive_seed("bulk-load-snapshot", case))
    database = fresh(schema, preload)
    database.table("r").equality_index((0,))
    before = database.table("r").items()
    snapshot = database.snapshot()
    outcome(Database.load, database, "r", rows)
    shared = snapshot["tables"]["r"]
    assert shared.items() == before
    assert shared.equality_index((0,)) == fresh(schema, preload).table(
        "r"
    ).equality_index((0,))
    database.restore(snapshot)
    assert database.table("r").items() == before


def test_empty_load_returns_nothing_and_copies_nothing():
    database = Database(schema_from_spec({"t": ["id", "v"]}))
    database.load("t", [(1, 2)])
    snapshot = database.snapshot()
    table = database.table("t")
    assert database.load("t", []) == []
    assert table._shared
    assert table._rows is snapshot["tables"]["t"]._rows
    assert database._next_tid == 2
    # As before, an empty load names no row, so no table check runs.
    assert database.load("ghost", []) == []


def test_bad_row_raises_after_storing_the_prefix():
    schema = schema_from_spec({"t": ["id", "name:string", "x:float"]})
    rows = [(1, "a", 1), (2, None, 2.5), (3, "c", True), (4, "d", "e")]
    bulk, reference = Database(schema), Database(schema)
    with pytest.raises(SchemaError) as bulk_error:
        bulk.load("t", rows)
    with pytest.raises(SchemaError) as reference_error:
        reference_load(reference, "t", rows)
    assert str(bulk_error.value) == str(reference_error.value)
    assert "value True does not fit column t.x of type float" in str(
        bulk_error.value
    )
    assert bulk.table("t").items() == [(1, (1, "a", 1)), (2, (2, None, 2.5))]
    assert_same_state(bulk, reference)


def test_wrong_arity_row_raises_the_insert_row_error():
    schema = schema_from_spec({"t": ["id", "v"]})
    database = Database(schema)
    with pytest.raises(SchemaError, match=r"table 't' expects 2 values, got 3"):
        database.load("t", [(1, 2), (3, 4), (5, 6, 7), (8, "bad")])
    assert database.table("t").items() == [(1, (1, 2)), (2, (3, 4))]
    assert database._next_tid == 3


def _write_checkpoint(path, tables, next_tid=10):
    schema = schema_from_spec({"t": ["id", "v"]})
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(encode_frame({"t": "H", "v": 1, "schema": schema.to_spec()}))
        handle.write(
            encode_frame({"t": "K", "next_tid": next_tid, "tables": tables})
        )


def test_checkpoint_with_a_duplicate_tid_raises(tmp_path):
    path = str(tmp_path / "dup.wal")
    _write_checkpoint(path, {"t": [[1, [1, 2]], [2, [3, 4]], [1, [5, 6]]]})
    with pytest.raises(ExecutionError, match=r"duplicate tid 1 in table 't'"):
        recover_database(path)


def test_checkpoint_with_a_wrong_arity_row_raises(tmp_path):
    path = str(tmp_path / "arity.wal")
    _write_checkpoint(path, {"t": [[1, [1, 2]], [2, [3, 4, 5]]]})
    with pytest.raises(ExecutionError, match=r"table 't' expects 2 values, got 3"):
        recover_database(path)
