"""Table storage tests."""

import pytest

from repro.engine.storage import TableData
from repro.engine.values import sort_key
from repro.errors import ExecutionError


@pytest.fixture
def table():
    data = TableData("t", 2)
    data.insert(1, (1, 10))
    data.insert(2, (2, 20))
    return data


class TestTableData:
    def test_insert_and_get(self, table):
        assert table.get(1) == (1, 10)
        assert len(table) == 2
        assert 1 in table and 3 not in table

    def test_insert_wrong_arity(self, table):
        with pytest.raises(ExecutionError, match="expects 2 values"):
            table.insert(3, (1,))

    def test_insert_duplicate_tid(self, table):
        with pytest.raises(ExecutionError, match="duplicate tid"):
            table.insert(1, (9, 9))

    def test_delete_returns_old_values(self, table):
        assert table.delete(1) == (1, 10)
        assert table.get(1) is None
        assert len(table) == 1

    def test_delete_missing_tid(self, table):
        with pytest.raises(ExecutionError, match="no tid"):
            table.delete(99)

    def test_update_returns_old_values(self, table):
        old = table.update(1, (1, 99))
        assert old == (1, 10)
        assert table.get(1) == (1, 99)

    def test_update_missing_tid(self, table):
        with pytest.raises(ExecutionError, match="no tid"):
            table.update(99, (0, 0))

    def test_rows_in_tid_order(self, table):
        assert table.items() == [(1, (1, 10)), (2, (2, 20))]

    def test_value_tuples(self, table):
        assert table.value_tuples() == [(1, 10), (2, 20)]


class TestCanonicalForm:
    def test_canonical_ignores_tids(self):
        first = TableData("t", 1)
        first.insert(1, (5,))
        first.insert(2, (3,))
        second = TableData("t", 1)
        second.insert(77, (3,))
        second.insert(99, (5,))
        assert first.canonical() == second.canonical()

    def test_canonical_is_a_bag_not_a_set(self):
        first = TableData("t", 1)
        first.insert(1, (5,))
        first.insert(2, (5,))
        second = TableData("t", 1)
        second.insert(1, (5,))
        assert first.canonical() != second.canonical()

    def test_canonical_sorts_mixed_nulls(self):
        data = TableData("t", 1)
        data.insert(1, (None,))
        data.insert(2, (1,))
        assert data.canonical() == ((None,), (1,))


class TestCopy:
    def test_copy_is_independent(self, table):
        clone = table.copy()
        clone.update(1, (0, 0))
        assert table.get(1) == (1, 10)
        assert clone.get(1) == (0, 0)


class TestEqualityIndex:
    def test_buckets_in_tid_order(self):
        data = TableData("t", 2)
        data.insert(3, (1, 30))
        data.insert(1, (1, 10))
        data.insert(2, (2, 20))
        index = data.equality_index((0,))
        [bucket] = [rows for key, rows in index.items() if rows[0][0] == 1]
        assert bucket == [(1, 10), (1, 30)]

    def test_built_from_the_tid_map(self):
        # The build reads (tid, values) pairs: no value list is made.
        data = TableData("t", 2)
        data.insert(3, (1, 30))
        data.insert(1, (1, 10))
        data.insert(2, (None, 20))
        assert list(data.equality_index((0,))) == [(sort_key(1),)]
        assert data._values_list is None
        assert data.equality_pairs((0,), (sort_key(1),)) == [
            (1, (1, 10)),
            (3, (1, 30)),
        ]
        assert data.equality_pairs((0,), (sort_key(2),)) == []
        assert data.tids() == [1, 2, 3]
        assert data._values_list is None

    def test_null_keys_excluded(self):
        data = TableData("t", 2)
        data.insert(1, (None, 10))
        data.insert(2, (5, 20))
        index = data.equality_index((0,))
        assert sum(len(rows) for rows in index.values()) == 1

    def test_memoized_until_write(self, table):
        first = table.equality_index((0,))
        assert table.equality_index((0,)) is first

    def test_insert_maintains_incrementally(self, table):
        index = table.equality_index((1,))
        table.insert(3, (3, 20))
        assert table.equality_index((1,)) is index
        keys_with_20 = [
            rows for rows in index.values() if (2, 20) in rows
        ]
        assert keys_with_20 == [[(2, 20), (3, 20)]]

    def test_insert_with_null_key_skips_index(self, table):
        index = table.equality_index((1,))
        size_before = sum(len(rows) for rows in index.values())
        table.insert(3, (3, None))
        assert sum(len(rows) for rows in index.values()) == size_before

    def test_delete_maintains_incrementally(self, table):
        first = table.equality_index((0,))
        table.delete(1)
        second = table.equality_index((0,))
        assert second is first
        assert sum(len(rows) for rows in second.values()) == 1

    def test_update_maintains_incrementally(self, table):
        first = table.equality_index((0,))
        table.update(1, (7, 10))
        second = table.equality_index((0,))
        assert second is first
        [moved] = [rows for rows in second.values() if (7, 10) in rows]
        assert moved == [(7, 10)]
        assert sum(len(rows) for rows in second.values()) == 2

    def test_bool_and_int_keys_stay_distinct(self):
        data = TableData("t", 1)
        data.insert(1, (1,))
        data.insert(2, (True,))
        index = data.equality_index((0,))
        assert len(index) == 2

    def test_cow_fork_shares_then_diverges(self, table):
        index = table.equality_index((0,))
        clone = table.copy()
        # The clone reuses the parent's index until either side writes.
        assert clone.equality_index((0,)) is index
        clone.insert(3, (3, 30))
        assert clone.equality_index((0,)) is not index
        # The parent's cached index is untouched by the clone's write.
        assert table.equality_index((0,)) is index
        assert sum(len(rows) for rows in index.values()) == 2
