"""Lemma 6.1 commutativity tests, including runtime validation (Figure 1)."""

import pytest

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.derived import DerivedDefinitions
from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec(
        {"t": ["id", "v"], "u": ["id", "w"], "z": ["id", "q"]}
    )


def analyzer_for(source, schema) -> CommutativityAnalyzer:
    return CommutativityAnalyzer(
        DerivedDefinitions(RuleSet.parse(source, schema))
    )


class TestConditions:
    def test_condition_1_triggering(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then insert into u values (1, 1)
            create rule b on u when inserted then delete from z
            """,
            schema,
        )
        assert not analyzer.commute("a", "b")
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 1 in conditions

    def test_condition_2_untriggering(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then delete from u
            create rule b on u when inserted then delete from z
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 2 in conditions

    def test_condition_3_write_read(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted
            then update u set w = 0 where id = 1

            create rule b on t when inserted
            then delete from z where id in (select w from u)
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 3 in conditions

    def test_condition_3_column_granularity(self, schema):
        # a updates u.id; b reads only u.w -> no condition 3.
        analyzer = analyzer_for(
            """
            create rule a on t when inserted
            then update u set id = 0

            create rule b on t when inserted
            then delete from z where id in (select w from u)
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 3 not in conditions

    def test_condition_3_insert_affects_any_read_column(self, schema):
        # Insertion into a read table fires condition 3 regardless of column.
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then insert into u values (1, 1)
            create rule b on t when inserted
            then delete from z where id in (select w from u)
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 3 in conditions

    def test_condition_4_insert_vs_delete(self, schema):
        # b's delete has no WHERE (reads nothing): only condition 4 fires.
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then insert into u values (1, 1)
            create rule b on t when inserted then delete from u
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 4 in conditions
        assert 3 not in conditions

    def test_condition_4_insert_vs_update(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then insert into u values (1, 1)
            create rule b on t when inserted then update u set w = 0
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 4 in conditions

    def test_condition_5_same_column_updates(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then update u set w = 0
            create rule b on t when inserted then update u set w = 1
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 5 in conditions

    def test_condition_5_different_columns_do_not_fire(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then update u set id = 0
            create rule b on t when inserted then update u set w = 1
            """,
            schema,
        )
        conditions = {
            reason.condition
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert 5 not in conditions

    def test_condition_6_reversal(self, schema):
        # Trigger relation only from b to a: still noncommutative.
        analyzer = analyzer_for(
            """
            create rule a on u when inserted then delete from z
            create rule b on t when inserted then insert into u values (1, 1)
            """,
            schema,
        )
        assert not analyzer.commute("a", "b")
        reasons = analyzer.noncommutativity_reasons("a", "b")
        assert any(reason.first == "b" for reason in reasons)


class TestGuaranteedCommutative:
    def test_disjoint_rules_commute(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then update u set w = 0
            create rule b on t when inserted then update z set q = 0
            """,
            schema,
        )
        assert analyzer.commute("a", "b")
        assert analyzer.noncommutativity_reasons("a", "b") == ()

    def test_rule_commutes_with_itself(self, schema):
        analyzer = analyzer_for(
            "create rule a on t when inserted then delete from u",
            schema,
        )
        assert analyzer.commute("a", "a")


class TestCertification:
    def test_certification_overrides_syntactic_judgment(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then update u set w = 0
            create rule b on t when inserted then update u set w = 1
            """,
            schema,
        )
        assert not analyzer.commute("a", "b")
        analyzer.certify_commutes("a", "b")
        assert analyzer.commute("a", "b")
        assert analyzer.commute("b", "a")  # symmetric

    def test_reasons_unaffected_by_certification(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then update u set w = 0
            create rule b on t when inserted then update u set w = 1
            """,
            schema,
        )
        analyzer.certify_commutes("a", "b")
        assert analyzer.noncommutativity_reasons("a", "b") != ()

    def test_revoke(self, schema):
        analyzer = analyzer_for(
            """
            create rule a on t when inserted then update u set w = 0
            create rule b on t when inserted then update u set w = 1
            """,
            schema,
        )
        analyzer.certify_commutes("a", "b")
        assert analyzer.revoke_certification("b", "a")
        assert not analyzer.commute("a", "b")
        assert not analyzer.revoke_certification("a", "b")

    def test_self_certification_is_noop(self, schema):
        analyzer = analyzer_for(
            "create rule a on t when inserted then delete from u",
            schema,
        )
        analyzer.certify_commutes("a", "a")
        assert analyzer.certified_pairs == frozenset()


class TestDiamondProperty:
    """Figure 1 validated at runtime: syntactically commutative rules,
    considered in either order, reach the same execution-graph state."""

    def run_both_orders(self, source, schema):
        ruleset = RuleSet.parse(source, schema)
        keys = []
        for order in (("a", "b"), ("b", "a")):
            database = Database(schema)
            database.load("t", [(1, 5)])
            processor = RuleProcessor(ruleset, database)
            processor.execute_user("insert into t values (2, 7)")
            for rule in order:
                processor.consider(rule)
            keys.append(processor.state_key())
        return keys

    def test_commutative_pair_reaches_same_state(self, schema):
        source = """
        create rule a on t when inserted then update u set id = 0
        create rule b on t when inserted then update z set q = 1
        """
        analyzer = analyzer_for(source, schema)
        assert analyzer.commute("a", "b")
        first, second = self.run_both_orders(source, schema)
        assert first == second

    def test_noncommutative_pair_can_diverge(self, schema):
        source = """
        create rule a on t when inserted
        then update t set v = v * 2 where id in (select id from inserted)

        create rule b on t when inserted
        then update t set v = v + 10 where id in (select id from inserted)
        """
        analyzer = analyzer_for(source, schema)
        assert not analyzer.commute("a", "b")
        first, second = self.run_both_orders(source, schema)
        assert first != second


class TestColumnFreeSelect:
    """A condition that names no column of the table it selects from
    still depends on that table's rows. Before ``Reads`` charged such a
    table, this pair was judged commutative and the program confluent,
    yet its execution graph has two final databases."""

    SOURCE = """
    create rule a on src when inserted
    if exists (select 1 from t) then update u set w = 1

    create rule b on src when inserted then insert into t values (1, 2)
    """

    @pytest.fixture
    def src_schema(self):
        return schema_from_spec(
            {"src": ["id"], "t": ["id", "v"], "u": ["id", "w"]}
        )

    def test_insert_meets_the_existence_read(self, src_schema):
        analyzer = analyzer_for(self.SOURCE, src_schema)
        fired = {
            (reason.condition, reason.first, reason.second)
            for reason in analyzer.noncommutativity_reasons("a", "b")
        }
        assert (3, "b", "a") in fired

    def test_analyzer_and_execution_graph_agree(self, src_schema):
        from repro.analysis.analyzer import RuleAnalyzer
        from repro.runtime.exec_graph import explore_ruleset

        ruleset = RuleSet.parse(self.SOURCE, src_schema)
        report = RuleAnalyzer(ruleset).analyze()
        assert report.terminates
        assert not report.confluent

        database = Database(src_schema)
        database.load("u", [(1, 0)])
        graph = explore_ruleset(
            ruleset, database, ["insert into src values (1)"]
        )
        assert len(set(graph.final_databases.values())) == 2
