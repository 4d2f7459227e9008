"""Database state tests."""

import pytest

from repro.engine.database import Database
from repro.errors import SchemaError
from repro.schema.catalog import ColumnType, schema_from_spec


@pytest.fixture
def database():
    schema = schema_from_spec({"t": ["id", "v"], "u": ["x"]})
    db = Database(schema)
    db.load("t", [(1, 10), (2, 20)])
    return db


class TestBasics:
    def test_insert_allocates_increasing_tids(self, database):
        first = database.insert_row("t", (3, 30))
        second = database.insert_row("t", (4, 40))
        assert second == first + 1

    def test_tids_unique_across_tables(self, database):
        tid_t = database.insert_row("t", (9, 9))
        tid_u = database.insert_row("u", (1,))
        assert tid_t != tid_u

    def test_unknown_table(self, database):
        with pytest.raises(SchemaError, match="unknown table"):
            database.table("ghost")

    def test_type_checking_on_insert(self, database):
        with pytest.raises(SchemaError, match="does not fit"):
            database.insert_row("t", ("a", 1))

    def test_arity_checking(self, database):
        with pytest.raises(SchemaError, match="expects 2 values"):
            database.insert_row("t", (1,))

    def test_nulls_allowed_everywhere(self, database):
        database.insert_row("t", (None, None))

    def test_update_type_checked(self, database):
        tids = database.table("t").tids()
        with pytest.raises(SchemaError):
            database.update_row("t", tids[0], (1, "bad"))


class TestUpdateTypeChecks:
    """An update checks only the positions whose value is not the stored
    object: every stored value passed the check when it was stored."""

    def test_an_ill_typed_set_value_still_raises(self, database):
        tid = database.table("t").tids()[0]
        updates = (
            lambda: database.update_row("t", tid, (1, "bad")),
            lambda: database.merge_update("t", tid, {1: "bad"}),
        )
        for update in updates:
            with pytest.raises(SchemaError) as raised:
                update()
            assert str(raised.value) == (
                "value 'bad' does not fit column t.v of type int"
            )
        assert database.table("t").get(tid) == (1, 10)

    def test_an_unchanged_column_is_not_checked_again(
        self, database, monkeypatch
    ):
        checked = []
        accepts = ColumnType.accepts

        def counting(kind, value):
            checked.append(value)
            return accepts(kind, value)

        monkeypatch.setattr(ColumnType, "accepts", counting)
        tid = database.table("t").tids()[0]
        database.update_row("t", tid, (database.table("t").get(tid)[0], 11))
        database.merge_update("t", tid, {1: 12})
        assert checked == [11, 12]
        assert database.table("t").get(tid) == (1, 12)


class TestSnapshotRestore:
    def test_restore_undoes_changes(self, database):
        snapshot = database.snapshot()
        database.insert_row("t", (99, 99))
        database.delete_row("t", database.table("t").tids()[0])
        database.restore(snapshot)
        assert database.table("t").value_tuples() == [(1, 10), (2, 20)]

    def test_restore_restores_tid_counter(self, database):
        snapshot = database.snapshot()
        database.insert_row("t", (99, 99))
        database.restore(snapshot)
        tid = database.insert_row("t", (5, 5))
        assert tid == database.table("t").tids()[-1]

    def test_snapshot_is_immune_to_later_changes(self, database):
        snapshot = database.snapshot()
        database.insert_row("t", (99, 99))
        assert len(snapshot["tables"]["t"]) == 2

    def test_copy_is_deep(self, database):
        clone = database.copy()
        clone.insert_row("t", (99, 99))
        assert len(database.table("t")) == 2
        assert len(clone.table("t")) == 3


class TestCanonical:
    def test_canonical_equal_for_same_data_different_tids(self, database):
        other = Database(database.schema)
        other.insert_row("t", (2, 20))
        other.insert_row("t", (1, 10))
        assert database.canonical() == other.canonical()

    def test_canonical_differs_on_content(self, database):
        other = database.copy()
        other.insert_row("u", (1,))
        assert database.canonical() != other.canonical()

    def test_canonical_for_projects_tables(self, database):
        other = database.copy()
        other.insert_row("u", (1,))
        assert database.canonical_for(("t",)) == other.canonical_for(("t",))
        assert database.canonical_for(("u",)) != other.canonical_for(("u",))

    def test_canonical_is_hashable(self, database):
        hash(database.canonical())
