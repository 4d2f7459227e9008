"""Tests for the attribute-level dataflow footprints (Writes /
ColumnReads / RowReadTables) and the refined Lemma 6.1 overlap tests
they power."""

import pytest

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.dataflow import Write, compute_writes, rule_dataflow
from repro.analysis.derived import (
    DerivedDefinitions,
    ObsExtendedDefinitions,
    OBS_TABLE,
)
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec(
        {
            "emp": ["id", "dept", "salary"],
            "dept": ["id", "budget"],
            "audit": ["id", "event"],
        }
    )


def rule_for(source, schema):
    return RuleSet.parse(source, schema).rule("r")


class TestWrites:
    def test_update_writes_assigned_columns_only(self, schema):
        rule = rule_for(
            "create rule r on emp when inserted "
            "then update emp set salary = 0 where id = 1",
            schema,
        )
        assert compute_writes(rule) == {Write("emp", "salary", "U")}

    def test_insert_writes_every_target_column(self, schema):
        rule = rule_for(
            "create rule r on emp when inserted "
            "then insert into dept values (1, 2)",
            schema,
        )
        assert compute_writes(rule) == {
            Write("dept", "id", "I"),
            Write("dept", "budget", "I"),
        }

    def test_delete_writes_every_target_column(self, schema):
        rule = rule_for(
            "create rule r on emp when inserted "
            "then delete from audit where id = 1",
            schema,
        )
        assert compute_writes(rule) == {
            Write("audit", "id", "D"),
            Write("audit", "event", "D"),
        }

    def test_written_columns_collapses_kinds(self, schema):
        rule = rule_for(
            "create rule r on emp when inserted "
            "then update emp set salary = 0",
            schema,
        )
        assert rule_dataflow(rule).written_columns == {("emp", "salary")}


class TestColumnReads:
    def test_exists_star_reads_only_where_columns(self, schema):
        rule = rule_for(
            """
            create rule r on emp when inserted
            if exists (select * from dept where budget < 0)
            then delete from audit where id = 1
            """,
            schema,
        )
        reads = rule_dataflow(rule).column_reads
        # Row existence, not row content: dept.id is NOT a value read.
        assert ("dept", "budget") in reads
        assert ("dept", "id") not in reads

    def test_count_star_reads_no_columns_but_rows(self, schema):
        rule = rule_for(
            """
            create rule r on emp when inserted
            if 0 < (select count(*) from dept)
            then delete from audit where id = 1
            """,
            schema,
        )
        footprint = rule_dataflow(rule)
        assert not any(
            table == "dept" for table, __ in footprint.column_reads
        )
        assert "dept" in footprint.row_read_tables
        assert "dept" in footprint.read_tables

    def test_in_subquery_output_is_read(self, schema):
        rule = rule_for(
            """
            create rule r on emp when inserted
            if exists (select * from dept where id in
                       (select event from audit))
            then delete from emp where id = 1
            """,
            schema,
        )
        reads = rule_dataflow(rule).column_reads
        assert ("audit", "event") in reads
        assert ("dept", "id") in reads

    def test_insert_query_output_is_read(self, schema):
        rule = rule_for(
            "create rule r on emp when inserted "
            "then insert into audit (select id, salary from inserted)",
            schema,
        )
        reads = rule_dataflow(rule).column_reads
        assert ("emp", "id") in reads
        assert ("emp", "salary") in reads

    def test_transition_tables_resolve_to_rule_table(self, schema):
        rule = rule_for(
            """
            create rule r on emp when updated(salary)
            if exists (select * from new_updated where salary > 100)
            then delete from audit where id = 1
            """,
            schema,
        )
        footprint = rule_dataflow(rule)
        assert ("emp", "salary") in footprint.column_reads
        assert "emp" in footprint.row_read_tables
        assert "new_updated" not in footprint.row_read_tables

    def test_update_assignment_and_where_reads(self, schema):
        rule = rule_for(
            "create rule r on emp when inserted "
            "then update emp set salary = dept where id > 0",
            schema,
        )
        reads = rule_dataflow(rule).column_reads
        assert ("emp", "dept") in reads
        assert ("emp", "id") in reads
        assert ("emp", "salary") not in reads


class TestRowReadTables:
    def test_write_targets_are_not_row_reads(self, schema):
        rule = rule_for(
            "create rule r on emp when inserted "
            "then update emp set salary = 0",
            schema,
        )
        assert rule_dataflow(rule).row_read_tables == frozenset()

    def test_every_evaluated_from_table_is_a_row_read(self, schema):
        rule = rule_for(
            """
            create rule r on emp when inserted
            if exists (select * from dept)
            then insert into audit (select id, salary from inserted)
            """,
            schema,
        )
        assert rule_dataflow(rule).row_read_tables == {"dept", "emp"}


class TestDefinitionsIntegration:
    def test_definitions_cache_dataflow(self, schema):
        defs = DerivedDefinitions(
            RuleSet.parse(
                "create rule r on emp when inserted "
                "then update emp set salary = 0",
                schema,
            )
        )
        assert defs.dataflow("r") is defs.dataflow("R")

    def test_obs_extension_adds_obs_footprint(self, schema):
        ruleset = RuleSet.parse(
            """
            create rule shown on emp when inserted
            then select id from inserted
            create rule silent on emp when inserted
            then update emp set salary = 0
            """,
            schema,
        )
        defs = ObsExtendedDefinitions(ruleset)
        shown = defs.dataflow("shown")
        assert any(w.table == OBS_TABLE for w in shown.writes)
        assert OBS_TABLE in shown.read_tables
        silent = defs.dataflow("silent")
        assert not any(w.table == OBS_TABLE for w in silent.writes)


class TestRefinedCondition3:
    """The dataflow tier must prune strictly relative to the column
    tier, and only ever by dropping reads that are provably
    existence-insensitive."""

    def analyzers(self, source, schema):
        defs = DerivedDefinitions(RuleSet.parse(source, schema))
        column = CommutativityAnalyzer(defs, granularity="column")
        dataflow = CommutativityAnalyzer(
            defs, granularity="column", column_dataflow=True
        )
        return column, dataflow

    def test_update_of_unread_column_pruned(self, schema):
        # watcher's EXISTS (select * ...) star-inflates the coarse
        # Reads to every dept column; the dataflow tier knows only
        # dept.id is value-read, so bumper's update of budget commutes.
        source = """
            create rule watcher on emp when inserted
            if exists (select * from dept where id > 0)
            then delete from audit where id = 1
            create rule bumper on emp when inserted
            then update dept set budget = 0
        """
        column, dataflow = self.analyzers(source, schema)
        assert not column.commute("watcher", "bumper")
        assert dataflow.commute("watcher", "bumper")

    def test_insert_into_watched_table_not_pruned(self, schema):
        # count(*) reads no column, but insert changes row membership:
        # the dataflow tier must still flag the pair.
        source = """
            create rule counter on emp when inserted
            if 0 < (select count(*) from dept)
            then delete from audit where id = 1
            create rule feeder on emp when inserted
            then insert into dept values (1, 2)
        """
        column, dataflow = self.analyzers(source, schema)
        assert not column.commute("counter", "feeder")
        assert not dataflow.commute("counter", "feeder")

    def test_update_of_read_column_not_pruned(self, schema):
        source = """
            create rule watcher on emp when inserted
            if exists (select * from dept where budget > 0)
            then delete from audit where id = 1
            create rule bumper on emp when inserted
            then update dept set budget = 0
        """
        column, dataflow = self.analyzers(source, schema)
        assert not column.commute("watcher", "bumper")
        assert not dataflow.commute("watcher", "bumper")

    def test_flag_requires_column_granularity(self, schema):
        defs = DerivedDefinitions(
            RuleSet.parse(
                "create rule r on emp when inserted "
                "then update emp set salary = 0",
                schema,
            )
        )
        with pytest.raises(ValueError):
            CommutativityAnalyzer(
                defs, granularity="table", column_dataflow=True
            )
