"""Sharded table storage: hash partitioning behind the TableData API."""

import pytest

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.partition import stable_shard
from repro.engine.storage import TableData
from repro.errors import ReproError, SchemaError
from repro.lang.parser import parse_statement
from repro.schema.catalog import schema_from_spec


def make_table(rows):
    data = TableData("t", 2)
    for tid, values in rows:
        data.insert(tid, values)
    return data


@pytest.fixture
def sharded():
    data = make_table((tid, (tid % 4, tid * 10)) for tid in range(1, 21))
    data.shard(0, 4)
    return data


class TestStableShard:
    def test_count_one_is_flat(self):
        assert stable_shard(7, 1) == 0
        assert stable_shard("x", 1) == 0

    def test_null_lands_on_shard_zero(self):
        assert stable_shard(None, 4) == 0

    def test_equality_consistency_across_numeric_types(self):
        """1 == 1.0 == True must co-shard, or key probes would miss
        hash siblings that SQL equality matches."""
        for count in (2, 3, 4, 7):
            assert (
                stable_shard(1, count)
                == stable_shard(1.0, count)
                == stable_shard(True, count)
            )
            assert stable_shard(2, count) == stable_shard(2.0, count)
            assert stable_shard(-3, count) == stable_shard(-3.0, count)

    def test_deterministic_and_in_range(self):
        for value in (0, 17, -5, 2.5, "region-a", "", None, False):
            first = stable_shard(value, 4)
            assert 0 <= first < 4
            assert stable_shard(value, 4) == first


class TestSharding:
    def test_shards_partition_the_rows(self, sharded):
        seen = []
        for shard in range(sharded.shard_count):
            rows = sharded.shard_rows(shard)
            assert rows == sorted(rows, key=lambda row: row.tid)
            for row in rows:
                assert sharded.shard_of_value(row.values[0]) == shard
            seen.extend(rows)
        assert sorted(seen, key=lambda row: row.tid) == sharded.rows()

    def test_insert_maintains_the_right_shard(self, sharded):
        sharded.insert(99, (2, 990))
        shard = sharded.shard_of_value(2)
        assert 99 in [row.tid for row in sharded.shard_rows(shard)]
        assert len(sharded) == 21

    def test_delete_maintains_the_right_shard(self, sharded):
        shard = sharded.shard_of_value(1)
        before = len(sharded.shard_rows(shard))
        sharded.delete(1)
        assert len(sharded.shard_rows(shard)) == before - 1

    def test_update_within_shard(self, sharded):
        sharded.update(4, (0, -1))
        shard = sharded.shard_of_value(0)
        assert (4, (0, -1)) in [
            (row.tid, row.values) for row in sharded.shard_rows(shard)
        ]

    def test_update_moves_rows_across_shards(self, sharded):
        # tid 4 has key 0; rewriting the key to 3 must migrate the row.
        old_shard = sharded.shard_of_value(0)
        new_shard = sharded.shard_of_value(3)
        sharded.update(4, (3, 40))
        assert 4 not in [row.tid for row in sharded.shard_rows(old_shard)]
        assert 4 in [row.tid for row in sharded.shard_rows(new_shard)]

    def test_shard_equality_index_matches_shard_content(self, sharded):
        for shard in range(sharded.shard_count):
            index = sharded.shard_equality_index(shard, (1,))
            indexed = sorted(
                values for bucket in index.values() for values in bucket
            )
            expected = sorted(
                row.values for row in sharded.shard_rows(shard)
            )
            assert indexed == expected

    def test_resharding_rebuilds_layout(self, sharded):
        sharded.shard(1, 2)
        assert sharded.shard_count == 2
        assert sharded.partition_column == 1
        total = sum(
            len(sharded.shard_rows(shard))
            for shard in range(sharded.shard_count)
        )
        assert total == len(sharded)


class TestShardedCopyOnWrite:
    def test_copy_is_independent(self, sharded):
        clone = sharded.copy()
        sharded.update(4, (3, 40))
        sharded.insert(99, (0, 990))
        assert clone.get(4) == (0, 40)
        assert clone.get(99) is None
        shard = clone.shard_of_value(0)
        assert 4 in [row.tid for row in clone.shard_rows(shard)]

    def test_copy_preserves_sharding(self, sharded):
        for cow in (True, False):
            clone = sharded.copy(cow=cow)
            assert clone.shard_count == 4
            assert clone.partition_column == 0
            assert clone.rows() == sharded.rows()
            for shard in range(4):
                assert clone.shard_rows(shard) == sharded.shard_rows(shard)

    def test_writes_on_the_clone_leave_the_original(self, sharded):
        clone = sharded.copy()
        clone.delete(4)
        assert sharded.get(4) == (0, 40)
        shard = sharded.shard_of_value(0)
        assert 4 in [row.tid for row in sharded.shard_rows(shard)]


class TestDatabasePartitioning:
    @pytest.fixture
    def database(self):
        schema = schema_from_spec({"t": ["region", "level"], "u": ["x"]})
        database = Database(schema)
        database.load("t", [(i % 3, i) for i in range(12)])
        return database

    def test_declare_unknown_column_rejected(self, database):
        with pytest.raises(SchemaError):
            database.declare_partition_key("t", "nope")

    def test_hints_are_inert_until_applied(self, database):
        database.declare_partition_key("t", "region")
        assert database.partition_hints == {"t": 0}
        assert database.table("t").shard_count == 0
        database.apply_partitioning(3)
        assert database.table("t").shard_count == 3
        assert database.table("u").shard_count == 0

    def test_apply_partitioning_of_one_is_flat(self, database):
        database.declare_partition_key("t", "region")
        database.apply_partitioning(1)
        assert database.table("t").shard_count == 0

    def test_copy_carries_hints_and_shards(self, database):
        database.declare_partition_key("t", "region")
        database.apply_partitioning(3)
        clone = database.copy()
        assert clone.partition_hints == {"t": 0}
        assert clone.table("t").shard_count == 3


class TestUnprunableShardedScans:
    """A scan of a sharded table that no key conjunct prunes reads the
    flat table in tid order, so it matches the flat scan row for row and
    error for error."""

    # Zero divisors at k = 7 (loaded first, shard 3 of 4) and at k = 4
    # (a later row, shard 0): a scan in tid order meets k = 7 first.
    FAILING = "1 / (k - 7) + 1 % (k - 4) > 0"
    UNPRUNABLE = "v > 4 and k % 3 <> 1"

    @staticmethod
    def database(partitions):
        database = Database(schema_from_spec({"t": ["k", "v"]}))
        keys = [7] + [k for k in range(300) if k != 7]
        database.load("t", [(k, k * 3 % 11) for k in keys])
        database.declare_partition_key("t", "k")
        database.apply_partitioning(partitions)
        return database

    @staticmethod
    def run(database, source, partitions):
        return execute_statement(
            database,
            parse_statement(source),
            config=ExecutionConfig(partitions=partitions),
        )

    @pytest.mark.parametrize(
        "source",
        [
            f"update t set v = 0 where {FAILING}",
            f"delete from t where {FAILING}",
            f"select k from t where {FAILING}",
        ],
    )
    def test_sharded_scan_raises_the_flat_scans_error(self, source):
        errors = []
        for partitions in (1, 4):
            database = self.database(partitions)
            assert database.table("t").shard_count == (
                partitions if partitions > 1 else 0
            )
            with pytest.raises(ReproError) as caught:
                self.run(database, source, partitions)
            errors.append(str(caught.value))
        assert "division by zero" in errors[0]
        assert errors[1] == errors[0]

    @pytest.mark.parametrize(
        "source",
        [
            f"select k, v from t where {UNPRUNABLE}",
            f"update t set v = v + k where {UNPRUNABLE}",
            f"delete from t where {UNPRUNABLE}",
        ],
    )
    def test_sharded_scan_matches_the_flat_scan(self, source):
        outcomes = []
        for partitions in (1, 4):
            database = self.database(partitions)
            probes = plan.STATS.shard_probes
            result = self.run(database, source, partitions)
            # No conjunct pins k, so neither side prunes.
            assert plan.STATS.shard_probes == probes
            rows = result.query_result.rows if result.query_result else None
            outcomes.append((result.affected, rows, database.canonical()))
        flat, sharded = outcomes
        assert flat[0] > 0
        assert sharded == flat
