"""Execution-graph explorer tests — the Section 4 model as an oracle."""

import pytest

from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.runtime.exec_graph import explore, explore_ruleset
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec({"t": ["id", "v"], "u": ["id", "v"]})


def graph_for(source, schema, statements, rows=(), **kwargs):
    ruleset = RuleSet.parse(source, schema)
    database = Database(schema)
    if rows:
        database.load("t", list(rows))
    return explore_ruleset(ruleset, database, statements, **kwargs)


NONCOMMUTING = """
create rule double_v on t when inserted
then update t set v = v * 2 where id in (select id from inserted)

create rule add_ten on t when inserted
then update t set v = v + 10 where id in (select id from inserted)
"""


class TestTermination:
    def test_trivial_termination(self, schema):
        graph = graph_for(
            "create rule r on t when deleted then delete from u",
            schema,
            ["insert into t values (1, 1)"],
        )
        assert graph.terminates
        assert len(graph.final_states) == 1

    def test_self_triggering_monotone_rule_is_truncated(self, schema):
        graph = graph_for(
            "create rule r on t when inserted, updated(v) "
            "then update t set v = v + 1",
            schema,
            ["insert into t values (1, 0)"],
            max_states=30,
            max_depth=20,
        )
        assert graph.truncated
        assert not graph.terminates

    def test_state_cycle_detected(self, schema):
        # Two rules that keep toggling a row between two tables: the
        # deduplicated state graph contains a genuine cycle.
        source = """
        create rule move_out on t when inserted
        then insert into u (select id, v from inserted); delete from t

        create rule move_back on u when inserted
        then insert into t (select id, v from inserted); delete from u
        """
        graph = graph_for(
            source,
            schema,
            ["insert into t values (1, 1)"],
            max_states=200,
        )
        assert graph.has_cycle
        assert not graph.terminates


class TestConfluence:
    def test_unordered_noncommuting_rules_diverge(self, schema):
        graph = graph_for(
            NONCOMMUTING, schema, ["insert into t values (1, 5)"]
        )
        assert graph.terminates
        assert not graph.is_confluent
        finals = set(graph.final_databases.values())
        assert len(finals) == 2  # (5*2)+10 = 20 vs (5+10)*2 = 30

    def test_ordering_restores_confluence(self, schema):
        source = NONCOMMUTING.replace(
            "then update t set v = v * 2 where id in (select id from inserted)",
            "then update t set v = v * 2 where id in (select id from inserted)\n"
            "precedes add_ten",
        )
        graph = graph_for(source, schema, ["insert into t values (1, 5)"])
        assert graph.is_confluent
        ((__, contents),) = [
            pair for pair in next(iter(graph.final_databases.values()))
            if pair[0] == "t"
        ]
        assert contents == ((1, 20),)

    def test_commuting_rules_are_confluent(self, schema):
        source = """
        create rule to_u on t when inserted then insert into u values (1, 1)
        create rule bump_t on t when inserted
        then update t set v = v + 1 where id in (select id from inserted)
        """
        graph = graph_for(source, schema, ["insert into t values (9, 0)"])
        assert graph.terminates
        assert graph.is_confluent


class TestObservableStreams:
    def test_single_stream_when_ordered(self, schema):
        source = """
        create rule watch_a on t when inserted
        then select id from t
        precedes watch_b

        create rule watch_b on t when inserted
        then select v from t
        """
        graph = graph_for(source, schema, ["insert into t values (1, 2)"])
        assert graph.is_observably_deterministic
        assert len(graph.observable_streams) == 1

    def test_two_streams_when_unordered(self, schema):
        source = """
        create rule watch_a on t when inserted then select id from t
        create rule watch_b on t when inserted then select v from t
        """
        graph = graph_for(source, schema, ["insert into t values (1, 2)"])
        assert not graph.is_observably_deterministic
        assert len(graph.observable_streams) == 2

    def test_confluent_but_not_observably_deterministic(self, schema):
        # Same database result either way, different select order.
        source = """
        create rule watch_a on t when inserted then select id from t
        create rule watch_b on t when inserted then select id from t
        """
        graph = graph_for(source, schema, ["insert into t values (1, 2)"])
        assert graph.is_confluent
        # Both selects return the same rows, so streams differ only in
        # which rule emitted first.
        assert len(graph.observable_streams) == 2


class TestGraphShape:
    def test_branch_count_matches_eligible_rules(self, schema):
        graph = graph_for(
            NONCOMMUTING, schema, ["insert into t values (1, 5)"]
        )
        assert len(graph.edges[graph.initial]) == 2

    def test_initial_state_with_no_triggered_rules_is_final(self, schema):
        graph = graph_for(
            "create rule r on t when deleted then delete from u",
            schema,
            [],
        )
        assert graph.initial in graph.final_states
        assert graph.state_count == 0

    def test_explorer_does_not_mutate_processor(self, schema):
        ruleset = RuleSet.parse(
            "create rule r on t when inserted then delete from u", schema
        )
        database = Database(schema)
        processor = RuleProcessor(ruleset, database)
        processor.execute_user("insert into t values (1, 1)")
        before = processor.state_key()
        explore(processor)
        assert processor.state_key() == before
        assert processor.triggered_rules() == ("r",)

    def test_path_count_reported(self, schema):
        graph = graph_for(
            NONCOMMUTING, schema, ["insert into t values (1, 5)"]
        )
        assert graph.paths_to_final() == 2


class TestUndecidedVerdicts:
    """stats() reports a verdict the graph cannot decide as None, by
    the same rule as oracle_verdict."""

    STORM = "create rule storm on t when inserted then insert into t values (1, 1)"
    FLIP = (
        "create rule flip on t when updated(v), inserted "
        "then update t set v = 1 - v"
    )

    @pytest.mark.parametrize(
        "source, expected",
        [(STORM, (None, None, None)), (FLIP, (False, None, None))],
        ids=["truncated", "cyclic"],
    )
    def test_stats_and_oracle_share_the_rule(self, schema, source, expected):
        from repro.validate.oracle import oracle_verdict

        verdict = oracle_verdict(
            RuleSet.parse(source, schema),
            Database(schema),
            ["insert into t values (0, 0)"],
            max_states=50,
            max_depth=20,
        )
        assert not verdict.graph.final_states
        stats = verdict.graph.stats()
        assert (
            stats["terminates"],
            stats["confluent"],
            stats["observably_deterministic"],
        ) == expected
        assert (
            verdict.terminates,
            verdict.confluent,
            verdict.observably_deterministic,
        ) == expected

    def test_cycle_decides_termination_in_a_truncated_graph(self, schema):
        # storm grows u forever, so exploration truncates; flip's loop
        # among the explored states is still a real infinite execution.
        graph = graph_for(
            self.FLIP + "\n"
            "create rule storm on u when inserted then insert into u values (1, 1)",
            schema,
            ["insert into t values (0, 0)", "insert into u values (0, 0)"],
            max_states=50,
            max_depth=20,
        )
        assert graph.truncated and graph.has_cycle
        assert graph.verdicts() == (False, None, None)

    @pytest.mark.parametrize(
        "max_paths, deterministic", [(1, None), (2, False), (6, False)]
    )
    def test_truncated_streams_decide_only_a_refutation(
        self, schema, max_paths, deterministic
    ):
        # Three unordered selects: six orders, six distinct streams. A
        # cut-off that kept two of them already refutes determinism.
        graph = graph_for(
            "create rule wa on t when inserted then select id from t\n"
            "create rule wb on t when inserted then select v from t\n"
            "create rule wc on t when inserted then select id + v from t",
            schema,
            ["insert into t values (1, 2)"],
            max_paths=max_paths,
        )
        assert graph.streams_truncated == (max_paths < 6)
        assert graph.verdicts() == (True, True, deterministic)
