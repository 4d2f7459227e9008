"""Tests for the Section 3 derived definitions."""

import pytest

from repro.analysis.derived import (
    DerivedDefinitions,
    ObsExtendedDefinitions,
    OBS_TABLE,
)
from repro.rules.events import TriggerEvent
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


def defs_for(source, schema) -> DerivedDefinitions:
    return DerivedDefinitions(RuleSet.parse(source, schema))


class TestPerforms:
    def test_insert_delete_update_events(self, schema):
        defs = defs_for(
            """
            create rule r on emp when inserted
            then insert into audit values (1, 1);
                 delete from dept where budget < 0;
                 update emp set salary = 0, dept = 0 where id = 1
            """,
            schema,
        )
        assert defs.performs("r") == frozenset(
            {
                TriggerEvent.insert("audit"),
                TriggerEvent.delete("dept"),
                TriggerEvent.update("emp", "salary"),
                TriggerEvent.update("emp", "dept"),
            }
        )

    def test_select_and_rollback_perform_nothing(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "then select * from emp; rollback",
            schema,
        )
        assert defs.performs("r") == frozenset()


class TestTriggers:
    def test_triggers_via_event_intersection(self, schema):
        defs = defs_for(
            """
            create rule producer on emp when inserted
            then insert into audit values (1, 1)

            create rule consumer on audit when inserted
            then delete from dept where budget < 0
            """,
            schema,
        )
        assert defs.triggers("producer") == frozenset({"consumer"})
        assert defs.triggers("consumer") == frozenset()

    def test_self_trigger(self, schema):
        defs = defs_for(
            "create rule r on emp when updated(salary) "
            "then update emp set salary = 0 where salary < 0",
            schema,
        )
        assert "r" in defs.triggers("r")

    def test_update_column_granularity(self, schema):
        defs = defs_for(
            """
            create rule writer on emp when inserted
            then update emp set dept = 0

            create rule salary_watcher on emp when updated(salary)
            then delete from audit

            create rule dept_watcher on emp when updated(dept)
            then delete from audit
            """,
            schema,
        )
        assert defs.triggers("writer") == frozenset({"dept_watcher"})


class TestReads:
    def test_condition_subquery_reads(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "if exists (select id from dept where budget > 0) "
            "then delete from audit",
            schema,
        )
        assert ("dept", "id") in defs.reads("r")
        assert ("dept", "budget") in defs.reads("r")

    def test_transition_table_reads_map_to_rule_table(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "then insert into audit (select id, salary from inserted)",
            schema,
        )
        assert ("emp", "id") in defs.reads("r")
        assert ("emp", "salary") in defs.reads("r")

    def test_select_star_reads_all_columns(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "if exists (select * from dept) then delete from audit",
            schema,
        )
        assert ("dept", "id") in defs.reads("r")
        assert ("dept", "budget") in defs.reads("r")

    def test_select_star_on_transition_table(self, schema):
        defs = defs_for(
            "create rule r on emp when updated(salary) "
            "if exists (select * from new_updated) then delete from audit",
            schema,
        )
        # star over new_updated = all columns of emp
        assert ("emp", "dept") in defs.reads("r")

    def test_update_where_and_assignment_reads(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "then update dept set budget = budget + 1 where id > 0",
            schema,
        )
        assert ("dept", "budget") in defs.reads("r")
        assert ("dept", "id") in defs.reads("r")

    def test_delete_where_reads(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "then delete from dept where budget < 0",
            schema,
        )
        assert defs.reads("r") == frozenset({("dept", "budget")})

    def test_alias_resolution(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "if exists (select d.budget from dept d) then delete from audit",
            schema,
        )
        assert ("dept", "budget") in defs.reads("r")

    def test_correlated_subquery_reads_outer_table(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "then delete from dept where exists "
            "(select * from emp where emp.dept = dept.id)",
            schema,
        )
        assert ("emp", "dept") in defs.reads("r")
        assert ("dept", "id") in defs.reads("r")

    def test_insert_literal_values_read_nothing(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "then insert into audit values (1, 2)",
            schema,
        )
        assert defs.reads("r") == frozenset()


class TestReadsEdgeCases:
    def test_nested_exists_subquery_reads(self, schema):
        defs = defs_for(
            """
            create rule r on emp when inserted
            if exists (select * from dept where exists
                       (select * from audit where event > dept.budget))
            then delete from emp where id = 0
            """,
            schema,
        )
        reads = defs.reads("r")
        assert ("audit", "event") in reads
        assert ("dept", "budget") in reads

    def test_nested_in_subquery_reads(self, schema):
        defs = defs_for(
            """
            create rule r on emp when inserted
            if exists (select * from dept where id in
                       (select id from audit where event = 1))
            then delete from emp where id = 0
            """,
            schema,
        )
        reads = defs.reads("r")
        assert ("audit", "id") in reads
        assert ("audit", "event") in reads
        assert ("dept", "id") in reads

    def test_group_by_and_having_subquery_reads(self, schema):
        defs = defs_for(
            """
            create rule r on emp when inserted
            if 0 < (select count(id) from dept group by budget
                    having budget > (select event from audit where id = 1))
            then delete from emp where id = 0
            """,
            schema,
        )
        reads = defs.reads("r")
        assert ("audit", "event") in reads
        assert ("audit", "id") in reads

    def test_transition_table_column_reads_charge_rule_table(self, schema):
        defs = defs_for(
            """
            create rule r on emp when updated(salary)
            if exists (select * from new_updated where salary > 100)
            then delete from audit where id = 0
            """,
            schema,
        )
        reads = defs.reads("r")
        # Transition tables are views of the rule's own table.
        assert ("emp", "salary") in reads
        assert not any(table == "new_updated" for table, __ in reads)

    def test_ambiguous_unqualified_column_reads_all_candidates(self, schema):
        # Both emp and dept have an ``id`` column; the conservative
        # reading charges the unqualified reference to both.
        defs = defs_for(
            """
            create rule r on emp when inserted
            if exists (select * from emp, dept where id > 0)
            then delete from audit where id = 0
            """,
            schema,
        )
        reads = defs.reads("r")
        assert ("emp", "id") in reads
        assert ("dept", "id") in reads

    def test_count_star_reads_every_from_table_column(self, schema):
        defs = defs_for(
            """
            create rule r on emp when inserted
            if 0 < (select count(*) from dept)
            then delete from audit where id = 0
            """,
            schema,
        )
        reads = defs.reads("r")
        assert ("dept", "id") in reads
        assert ("dept", "budget") in reads

    def test_count_star_in_where_subquery(self, schema):
        defs = defs_for(
            """
            create rule r on emp when inserted
            if exists (select * from audit
                       where event = (select count(*) from dept))
            then delete from emp where id = 0
            """,
            schema,
        )
        reads = defs.reads("r")
        assert ("dept", "budget") in reads


class TestColumnFreeSelects:
    """A select still reads the rows of a FROM table it names no column
    of, so the table is charged with all its columns (as ``select *``
    is); otherwise Lemma 6.1 condition 3 misses inserts and deletes."""

    @pytest.mark.parametrize(
        "condition",
        [
            "exists (select 1 from dept)",
            "(select count(1) from dept) > 0",
            "exists (select e.id from emp e, dept)",
        ],
    )
    def test_unnamed_from_table_reads_every_column(self, schema, condition):
        defs = defs_for(
            f"create rule r on emp when inserted if {condition} "
            "then delete from audit",
            schema,
        )
        assert {("dept", "id"), ("dept", "budget")} <= defs.reads("r")

    def test_unnamed_transition_table_charges_the_rule_table(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "if exists (select 1 from inserted) then delete from audit",
            schema,
        )
        assert defs.reads("r") == frozenset(
            {("emp", "id"), ("emp", "dept"), ("emp", "salary")}
        )

    def test_named_columns_are_not_widened(self, schema):
        defs = defs_for(
            "create rule r on emp when inserted "
            "if exists (select 1 from dept where budget > 0) "
            "then delete from audit",
            schema,
        )
        assert defs.reads("r") == frozenset({("dept", "budget")})

    def test_each_select_is_charged_on_its_own(self, schema):
        # The action select names dept.budget only; the condition's
        # select names no dept column, so it still charges all of them.
        defs = defs_for(
            "create rule r on emp when inserted "
            "if exists (select 1 from dept) "
            "then insert into audit (select budget, budget from dept)",
            schema,
        )
        assert {("dept", "id"), ("dept", "budget")} <= defs.reads("r")


class TestCanUntrigger:
    def test_deletion_untriggers_insert_triggered_rules(self, schema):
        defs = defs_for(
            """
            create rule victim on emp when inserted
            then delete from audit

            create rule bystander on dept when inserted
            then delete from audit
            """,
            schema,
        )
        operations = {TriggerEvent.delete("emp")}
        assert defs.can_untrigger(operations) == frozenset({"victim"})

    def test_deletion_untriggers_update_triggered_rules(self, schema):
        defs = defs_for(
            "create rule watcher on emp when updated(salary) "
            "then delete from audit",
            schema,
        )
        assert defs.can_untrigger({TriggerEvent.delete("emp")}) == frozenset(
            {"watcher"}
        )

    def test_delete_triggered_rules_cannot_be_untriggered(self, schema):
        defs = defs_for(
            "create rule watcher on emp when deleted then delete from audit",
            schema,
        )
        assert defs.can_untrigger({TriggerEvent.delete("emp")}) == frozenset()

    def test_no_deletions_means_no_untriggering(self, schema):
        defs = defs_for(
            "create rule watcher on emp when inserted then delete from audit",
            schema,
        )
        operations = {TriggerEvent.insert("emp"), TriggerEvent.update("emp", "id")}
        assert defs.can_untrigger(operations) == frozenset()


class TestObsExtension:
    def test_observable_rules_gain_obs_events(self, schema):
        defs = ObsExtendedDefinitions(
            RuleSet.parse(
                """
                create rule watcher on emp when inserted
                then select * from emp

                create rule silent on emp when inserted
                then delete from audit
                """,
                schema,
            )
        )
        assert TriggerEvent.insert(OBS_TABLE) in defs.performs("watcher")
        assert (OBS_TABLE, "c") in defs.reads("watcher")
        assert TriggerEvent.insert(OBS_TABLE) not in defs.performs("silent")

    def test_obs_does_not_change_triggering(self, schema):
        ruleset = RuleSet.parse(
            "create rule watcher on emp when inserted then select * from emp",
            schema,
        )
        base = DerivedDefinitions(ruleset)
        extended = ObsExtendedDefinitions(ruleset)
        assert base.triggers("watcher") == extended.triggers("watcher")
