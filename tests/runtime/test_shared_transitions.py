"""Shared pending slices: one fold per table and marker.

The incremental processor caches a pending transition per *slice*, one
per (rule table, marker): every rule on the table that holds the marker
reads it, along with the transition tables built from it and the
equality indexes over them. These tests drive programs where many rules
share a table against ``ExecutionConfig(incremental=False)``, which
refolds every rule's transition from the log, and pin the sharing
itself: a write is folded once per slice, an ``inserted`` index is
built once per slice version, a fold drops what was built from the old
version, and a fork's fold leaves its parent's slices alone.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine.database import Database
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.workloads.generator import (
    GeneratorConfig,
    LayeredRuleSetGenerator,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from tests.runtime.test_incremental_equivalence import both_ways, drive
from tests.seeding import derive_seed

#: generated programs crowded onto two tables, so most rules share one
#: with several others and many hold the same marker
CROWDED = GeneratorConfig(
    n_tables=2,
    n_rules=10,
    p_cross_table=0.5,
    p_observable=0.3,
    p_condition=0.8,
    rows_per_table=4,
    statements_per_transition=3,
)
#: the same crowding on layered (always terminating) programs: eight
#: rules on the first two of three tables
LAYERED = GeneratorConfig(
    n_tables=3,
    n_rules=8,
    p_observable=0.3,
    rows_per_table=3,
    statements_per_transition=3,
)

BOTH = (ExecutionConfig(incremental=False), ExecutionConfig())


def crowded_session(label: str, seed: int, layered: bool = False):
    """A crowded rule set, database and user transition for one site."""
    site = derive_seed(label, seed)
    if layered:
        config = LAYERED
        ruleset = LayeredRuleSetGenerator(config, seed=site).generate()
    else:
        config = CROWDED
        ruleset = RandomRuleSetGenerator(config, seed=site).generate()
    instances = RandomInstanceGenerator(config)
    database = instances.generate_database(ruleset.schema, seed=site)
    statements = instances.generate_transition(ruleset.schema, seed=site)
    return site, ruleset, database, statements


def processors(ruleset, database, seed=0, max_steps=40):
    """One processor per substrate, each on its own parse and database."""
    return [
        RuleProcessor(
            RuleSet.parse(ruleset.source(), ruleset.schema),
            database.copy(),
            strategy=RandomStrategy(seed),
            max_steps=max_steps,
            config=config,
        )
        for config in BOTH
    ]


class TestCrowdedEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_sessions_agree(self, seed):
        site, ruleset, database, statements = crowded_session(
            "shared-sessions", seed
        )
        scratch, incremental = both_ways(ruleset, database, statements, site)
        assert scratch == incremental

    @pytest.mark.parametrize("layered", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_explored_graphs_agree(self, seed, layered):
        site, ruleset, database, statements = crowded_session(
            "shared-explore", seed, layered
        )
        graphs = []
        for processor in processors(ruleset, database):
            for statement in statements:
                processor.execute_user(statement)
            graphs.append(explore(processor, max_states=150, max_depth=25))
        scratch, incremental = graphs
        assert scratch.initial == incremental.initial
        assert scratch.edges == incremental.edges
        assert scratch.final_states == incremental.final_states
        assert scratch.final_databases == incremental.final_databases
        assert scratch.truncated == incremental.truncated
        assert scratch.observable_streams == incremental.observable_streams

    @pytest.mark.parametrize("seed", range(4))
    def test_forks_at_every_step_agree(self, seed):
        """At every step a fork is driven to quiescence on its own; the
        parent then goes on. Neither may see the other's folds."""
        site, ruleset, database, statements = crowded_session(
            "shared-forks", seed
        )
        records = []
        for processor in processors(ruleset, database, seed=site):
            for statement in statements:
                processor.execute_user(statement)
            record = []
            for __ in range(12):
                eligible = processor.eligible_rules()
                if not eligible:
                    break
                child = processor.fork()
                child.strategy = RandomStrategy(site + len(record))
                record.append(drive(child, [], max_steps=15))
                processor.consider(eligible[-1], eligible=eligible)
                record.append(processor.state_key())
            records.append(record)
        assert records[0] == records[1]

    def test_deactivation_and_priority_edits_agree(self):
        edited_while_triggered = 0
        for seed in range(6):
            site, ruleset, database, statements = crowded_session(
                "shared-edits", seed
            )
            target: dict = {}

            def deactivate(processor):
                triggered = processor.triggered_rules()
                target["rule"] = (
                    triggered[0] if triggered else processor.ruleset.names[0]
                )
                target["triggered"] = bool(triggered)
                processor.ruleset.deactivate(target["rule"])

            def reactivate(processor):
                processor.ruleset.activate(target["rule"])

            edits = {1: deactivate, 3: reactivate}
            unordered = ruleset.priorities.unordered_pairs()
            if unordered:
                added = unordered[seed % len(unordered)]
                edits[2] = lambda p: p.ruleset.add_priority(*added)
            scratch, incremental = both_ways(
                ruleset, database, statements, site, edits=edits
            )
            assert scratch == incremental, f"seed {seed}"
            edited_while_triggered += target["triggered"]
        assert edited_while_triggered >= 3

    def test_rollback_mid_run_agrees(self):
        guard = (
            "create rule guard on t1 when inserted, deleted, updated "
            "then rollback 'guard'"
        )
        rolled_back_mid_run = 0
        for seed in range(6):
            site, generated, database, statements = crowded_session(
                "shared-rollback", seed
            )
            ruleset = RuleSet.parse(
                generated.source() + "\n\n" + guard, generated.schema
            )
            second = RandomInstanceGenerator(CROWDED).generate_transition(
                ruleset.schema, seed=site + 77
            )
            records = []
            for processor in processors(ruleset, database, seed=site):
                first = drive(processor, statements)
                processor.begin_transaction()
                records.append((first, drive(processor, second)))
            assert records[0] == records[1], f"seed {seed}"
            first = records[0][0]
            rolled_back_mid_run += (
                first["rolled_back"] and len(first["considered"]) > 1
            )
        assert rolled_back_mid_run >= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_commits_between_transactions_agree(self, seed):
        """A commit after a quiescent run compacts the log; the next
        transaction's slices start past the compaction point."""
        site, ruleset, database, statements = crowded_session(
            "shared-commits", seed, layered=True
        )
        instances = RandomInstanceGenerator(LAYERED)
        transitions = [statements] + [
            instances.generate_transition(ruleset.schema, seed=site + k)
            for k in (1, 2)
        ]
        records = []
        for processor in processors(ruleset, database, seed=site):
            record = []
            for transition in transitions:
                processor.begin_transaction()
                for statement in transition:
                    processor.execute_user(statement)
                result = processor.run()
                processor.commit()
                assert not processor.log.since(0)  # compacted
                record.append(
                    (
                        result.outcome,
                        result.rules_considered,
                        tuple(result.observables),
                        processor.state_key(),
                    )
                )
            record.append(processor.database.canonical())
            records.append(record)
        assert records[0] == records[1]


def crowded_table_processor(conditions, action, config=None):
    """Sixteen rules on ``t(k, v)``, rule ``r{i}`` with condition
    ``conditions.format(i=i)`` (or none) and the one *action*."""
    schema = schema_from_spec({"t": ["k", "v"], "u": ["k", "v"]})
    source = "\n".join(
        f"create rule r{i} on t when inserted"
        + (f" if {conditions.format(i=i)}" if conditions else "")
        + f" then {action}"
        for i in range(16)
    )
    return RuleProcessor(
        RuleSet.parse(source, schema), Database(schema), config=config
    )


class TestSixteenRulesOnOneTable:
    def test_one_write_is_folded_once(self):
        processor = crowded_table_processor(
            None, "insert into u values (1, 1)"
        )
        processor.execute_user("insert into t values (1, 1)")
        result = processor.run()
        assert len(result.steps) == 16
        # One slice at the assertion point, one primitive on t: the
        # writes to u only move the slice's position.
        assert processor.stats.primitives_folded == 1

    def test_an_inserted_probe_builds_one_index_per_slice_version(self):
        conditions = "exists (select * from inserted where k = {i})"
        counts = []
        for config in BOTH:
            processor = crowded_table_processor(
                conditions, "insert into u values (1, 1)", config
            )
            processor.execute_user("insert into t values (3, 1), (5, 2)")
            before = plan.STATS.snapshot()
            result = processor.run()
            delta = plan.STATS.delta_since(before)
            assert len(result.steps) == 16
            assert sum(step.condition_was_true for step in result.steps) == 2
            assert delta["index_probes"] == 16
            counts.append(delta["transient_index_builds"])
        assert counts == [16, 1]

    def test_a_write_on_the_table_starts_a_new_slice_version(self):
        """A write on ``t`` after r0's consideration folds into the
        slice r1..r15 still share; r0 reads a slice of its own."""
        processor = crowded_table_processor(
            "exists (select * from inserted where k = {i})",
            "insert into u values (1, 1)",
        )
        processor.execute_user("insert into t values (3, 1)")
        eligible = processor.eligible_rules()
        processor.consider(eligible[0], eligible=eligible)
        before = plan.STATS.snapshot()
        processor.execute_user("insert into t values (4, 1)")
        result = processor.run()
        assert plan.STATS.delta_since(before)["transient_index_builds"] == 2
        assert processor.database.table("u").value_tuples() == [(1, 1)] * 2
        assert len(result.steps) == 16


class TestFoldsDropWhatTheyInvalidate:
    SCHEMA = {"t": ["k", "v"], "log": ["k", "v"]}

    def outcomes(self, source, statements):
        schema = schema_from_spec(self.SCHEMA)
        finals = []
        for config in BOTH:
            processor = RuleProcessor(
                RuleSet.parse(source, schema), Database(schema), config=config
            )
            for statement in statements:
                processor.execute_user(statement)
            processor.run()
            finals.append(processor.database.table("log").value_tuples())
        assert finals[0] == finals[1]
        return finals[1]

    def test_a_rule_sees_rows_written_after_the_overlays_were_built(self):
        # a reads `inserted` (building the slice's overlays), then
        # writes t; b still holds the first marker and must see both rows.
        source = """
        create rule a on t when inserted
        if exists (select * from inserted where v > 0)
        then insert into t values (2, 0)
        precedes b
        create rule b on t when inserted
        then insert into log (select k, v from inserted)
        """
        log = self.outcomes(source, ["insert into t values (1, 1)"])
        assert sorted(log) == [(1, 1), (2, 0)]

    def test_a_rule_probes_rows_written_after_the_index_was_built(self):
        source = """
        create rule a on t when inserted
        if exists (select * from inserted where k = 1)
        then insert into t values (2, 0)
        precedes b
        create rule b on t when inserted
        if exists (select * from inserted where k = 2)
        then insert into log values (9, 9)
        """
        assert self.outcomes(source, ["insert into t values (1, 1)"]) == [
            (9, 9)
        ]

    def test_a_forked_childs_fold_leaves_the_parent_overlays(self):
        source = """
        create rule a on t when inserted
        then insert into log (select k, v from inserted)
        create rule b on t when inserted
        then insert into log (select k + 10, v from inserted)
        """
        schema = schema_from_spec(self.SCHEMA)
        logs = []
        for config in BOTH:
            parent = RuleProcessor(
                RuleSet.parse(source, schema), Database(schema), config=config
            )
            parent.execute_user("insert into t values (1, 1)")
            eligible = parent.eligible_rules()
            parent.consider("a", eligible=eligible)  # builds the overlays
            child = parent.fork()
            child.execute_user("insert into t values (2, 2)")
            child.consider("b", eligible=child.eligible_rules())
            parent.consider("b", eligible=parent.eligible_rules())
            logs.append(
                (
                    parent.database.table("log").value_tuples(),
                    child.database.table("log").value_tuples(),
                )
            )
        assert logs[0] == logs[1]
        parent_log, child_log = logs[1]
        assert parent_log == [(1, 1), (11, 1)]
        assert child_log == [(1, 1), (11, 1), (12, 2)]


class TestSliceLifetimes:
    def test_never_more_slices_than_rules(self):
        for seed in range(6):
            site, ruleset, database, statements = crowded_session(
                "shared-lifetimes", seed
            )
            processor = RuleProcessor(
                ruleset, database.copy(), strategy=RandomStrategy(site)
            )
            for statement in statements:
                processor.execute_user(statement)
            for __ in range(30):
                eligible = processor.eligible_rules()
                if not eligible:
                    break
                processor.consider(
                    processor.strategy.choose(eligible), eligible=eligible
                )
                processor.state_key()  # folds every rule's slice
                held = {
                    (rule.table, processor.markers[rule.name])
                    for rule in ruleset
                }
                assert set(processor._slices) <= held
                assert len(processor._slices) <= len(ruleset)
            processor.mark_assertion_point()
            assert not processor._slices
