"""UPDATE/DELETE target scans against the reference path, error for error.

A planned target scan that no ``col = <constant>`` conjunct narrows
walks every row in tid order, as the reference path
(``ExecutionConfig(matching="naive", planner=False)``) does, so it
returns the same rows and raises the same row's error. A scan such a
conjunct narrows probes the table's equality index and evaluates its
WHERE only on the probed bucket: an error that only a row outside the
bucket would raise surfaces on the reference path alone.
"""

import pytest

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.storage import TableData
from repro.errors import EvaluationError, ReproError
from repro.lang.parser import parse_statement
from repro.schema.catalog import schema_from_spec

PLANNED = ExecutionConfig()
REFERENCE = ExecutionConfig(matching="naive", planner=False)


class TestUnprunableShardedScans:
    """A target scan no key conjunct narrows reads every row in tid
    order, so the planned path matches the reference row for row and
    error for error."""

    # Zero divisors at k = 7 (loaded first) and at k = 4 (a later row):
    # a scan in tid order meets k = 7 first.
    FAILING = "1 / (k - 7) + 1 % (k - 4) > 0"
    UNPRUNABLE = "v > 4 and k % 3 <> 1"

    @staticmethod
    def database():
        database = Database(schema_from_spec({"t": ["k", "v"]}))
        keys = [7] + [k for k in range(300) if k != 7]
        database.load("t", [(k, k * 3 % 11) for k in keys])
        return database

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
        for config in (REFERENCE, PLANNED):
            with pytest.raises(ReproError) as caught:
                execute_statement(
                    self.database(), parse_statement(source), config=config
                )
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
        for config in (REFERENCE, PLANNED):
            database = self.database()
            probes = plan.STATS.index_probes
            result = execute_statement(
                database, parse_statement(source), config=config
            )
            # No conjunct pins a column to a constant: nothing probes.
            assert plan.STATS.index_probes == probes
            rows = result.query_result.rows if result.query_result else None
            outcomes.append((result.affected, rows, database.canonical()))
        reference, planned = outcomes
        assert reference[0] > 0
        assert planned == reference


class TestWholeTableTargets:
    """A WHERE-less UPDATE or DELETE takes its tids from the tid map."""

    @pytest.mark.parametrize(
        "source", ["delete from t", "update t set v = v + 1", "delete from t x"]
    )
    def test_builds_no_row_list(self, source, monkeypatch):
        def no_rows(table):
            raise AssertionError(f"{table.name}: row list built")

        outcomes = []
        for config in (REFERENCE, PLANNED):
            database = TestUnprunableShardedScans.database()
            with monkeypatch.context() as patch:
                patch.setattr(TableData, "items", no_rows)
                patch.setattr(TableData, "value_tuples", no_rows)
                result = execute_statement(
                    database, parse_statement(source), config=config
                )
            outcomes.append((result.affected, database.canonical()))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][0] == 300


class TestProbedTargetDivergence:
    """A probed target evaluates its WHERE only on the probed bucket."""

    SOURCE = "update t set b = 0 where 10 / (b - 3) > 0 and a = 1"

    @staticmethod
    def database():
        database = Database(schema_from_spec({"t": ["a", "b"]}))
        database.load("t", [(2, 3), (1, 5), (1, 7)])
        return database

    def test_planned_path_updates_the_bucket(self):
        database = self.database()
        before = plan.STATS.snapshot()
        result = execute_statement(database, parse_statement(self.SOURCE))
        assert plan.STATS.delta_since(before)["index_probes"] == 1
        assert result.affected == 2
        assert database.table("t").value_tuples() == [(2, 3), (1, 0), (1, 0)]

    @pytest.mark.parametrize(
        "config",
        [REFERENCE, ExecutionConfig(planner=False)],
        ids=["reference", "planner-off"],
    )
    def test_reference_path_raises_on_the_row_outside(self, config):
        database = self.database()
        with pytest.raises(EvaluationError, match="division by zero"):
            execute_statement(
                database, parse_statement(self.SOURCE), config=config
            )
        assert database.table("t").value_tuples() == [(2, 3), (1, 5), (1, 7)]
