"""Incremental vs. from-scratch triggering equivalence.

The incremental substrate (the maintained triggered set TR rechecked
only for rules on written tables, cached per-rule net effects advanced
by :meth:`NetEffect.fold`, the per-table touch index, copy-on-write
snapshots) must be semantics-preserving by construction: for any
workload, a processor with ``incremental=True`` and one with
``incremental=False`` (the seed's from-scratch path, which checks
every rule at every step) must agree on every observable of a run —
TR and ``Choose(TR)`` at every step, the rules considered, the
observable stream, the final canonical database, and the full
``state_key()`` sequence — including across rollback and
``begin_transaction`` boundaries, rule deactivation and priority edits
in mid-session, ``trace_run`` and index-probed UPDATE targets. This
randomized harness drives seeded sessions both ways over generated
workloads (the same generation the validation oracle's sampling uses)
and asserts exact agreement.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine.database import Database
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.runtime.trace import trace_run
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from repro.workloads.partitioned import partitioned_workload
from tests.seeding import derive_seed


def drive(
    processor: RuleProcessor, statements, max_steps: int = 40, edits=None
) -> dict:
    """Run one session manually, recording everything comparable.

    Uses the step-by-step API (not :meth:`run`) so TR and ``Choose(TR)``
    at every step and the ``state_key()`` after every consideration are
    captured too. *edits* maps a step number to a callable applied to
    the processor just before that step's eligibility is computed;
    edits still due when nothing is eligible are applied then, one at a
    time, and the session goes on.
    """
    record: dict = {
        "keys": [],
        "triggered": [],
        "eligible": [],
        "considered": [],
        "exhausted": False,
    }
    pending = sorted((edits or {}).items())
    for statement in statements:
        processor.execute_user(statement)
    record["keys"].append(processor.state_key())
    steps = 0
    while True:
        while pending and pending[0][0] <= steps:
            pending.pop(0)[1](processor)
        record["triggered"].append(processor.triggered_rules())
        eligible = processor.eligible_rules()
        record["eligible"].append(eligible)
        if not eligible and pending and not processor.rolled_back:
            pending.pop(0)[1](processor)
            continue
        if not eligible:
            break
        if steps >= max_steps:
            record["exhausted"] = True
            break
        chosen = processor.strategy.choose(eligible)
        outcome = processor.consider(chosen, eligible=eligible)
        record["considered"].append(
            (outcome.rule, outcome.condition_was_true, outcome.rolled_back)
        )
        record["keys"].append(processor.state_key())
        steps += 1
    record["observables"] = tuple(processor.observables)
    record["final_database"] = processor.database.canonical()
    record["rolled_back"] = processor.rolled_back
    return record


def both_ways(ruleset, database, statements, seed, max_steps=40, edits=None):
    """Drive the session with each substrate. Each side gets its own
    parse of the rule set, so edits made in one session cannot leak
    into the other."""
    records = []
    for incremental in (False, True):
        processor = RuleProcessor(
            RuleSet.parse(ruleset.source(), ruleset.schema),
            database.copy(),
            strategy=RandomStrategy(seed),
            config=ExecutionConfig(incremental=incremental),
        )
        records.append(
            drive(processor, statements, max_steps=max_steps, edits=edits)
        )
    return records


#: the generated sessions' shape: cross-table cascades, some observables
SESSION_CONFIG = GeneratorConfig(
    n_tables=3,
    n_rules=6,
    p_cross_table=0.7,
    p_observable=0.3,
    rows_per_table=4,
    statements_per_transition=3,
)


def generated_session(label: str, seed: int):
    """A generated rule set, database and user transition for one site."""
    site = derive_seed(label, seed)
    ruleset = RandomRuleSetGenerator(SESSION_CONFIG, seed=site).generate()
    instances = RandomInstanceGenerator(SESSION_CONFIG)
    database = instances.generate_database(ruleset.schema, seed=site)
    statements = instances.generate_transition(ruleset.schema, seed=site)
    return site, ruleset, database, statements


class TestMaintainedTriggeredSet:
    SOURCE = """
    create rule on_v on t when updated(v) then insert into log values (1)
    create rule on_id on t when updated(id) then insert into log values (2)
    create rule on_u on u when inserted then insert into log values (3)
    """

    @pytest.fixture
    def ruleset(self):
        schema = schema_from_spec(
            {"t": ["id", "v:float"], "u": ["id"], "log": ["id"]}
        )
        return RuleSet.parse(self.SOURCE, schema)

    def processor(self, ruleset, incremental=True):
        database = Database(ruleset.schema)
        database.load("t", [(1, 1), (2, 2)])
        return RuleProcessor(
            ruleset, database, config=ExecutionConfig(incremental=incremental)
        )

    def test_only_rules_on_written_tables_are_rechecked(self, ruleset):
        processor = self.processor(ruleset)
        processor.execute_user("insert into u values (1)")
        assert processor.triggered_rules() == ("on_u",)
        assert processor.stats.trigger_checks == 1
        assert processor.eligible_rules() == ("on_u",)
        assert processor.stats.trigger_checks == 1  # nothing written since
        processor.execute_user("update t set v = 5 where id = 1")
        assert processor.triggered_rules() == ("on_v", "on_u")
        assert processor.stats.trigger_checks == 3

    def test_a_value_of_another_type_is_a_changed_column(self, ruleset):
        """``(1, 1) -> (11, 1.0)``: v compares equal but changes type,
        which the operation set counts as an update of v; the early-exit
        recheck must agree."""
        for incremental in (False, True):
            processor = self.processor(ruleset, incremental)
            processor.execute_user(
                "update t set id = id + 10, v = 1.0 where id = 1"
            )
            assert processor.triggered_rules() == ("on_v", "on_id")


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_sessions_agree(self, seed):
        site, ruleset, database, statements = generated_session(
            "incremental-sessions", seed
        )
        scratch, incremental = both_ways(ruleset, database, statements, site)
        assert scratch == incremental

    @pytest.mark.parametrize("seed", range(6))
    def test_two_assertion_points_agree(self, seed):
        """Quiescence advances every marker; the next assertion point's
        transitions must compose identically in both modes."""
        config = GeneratorConfig(n_tables=3, n_rules=5, rows_per_table=3)
        site = derive_seed("incremental-two-points", seed)
        ruleset = RandomRuleSetGenerator(config, seed=100 + site).generate()
        instances = RandomInstanceGenerator(config)
        database = instances.generate_database(ruleset.schema, seed=site)
        first = instances.generate_transition(ruleset.schema, seed=site)
        second = instances.generate_transition(ruleset.schema, seed=site + 77)

        results = []
        for incremental in (False, True):
            processor = RuleProcessor(
                ruleset,
                database.copy(),
                strategy=RandomStrategy(site),
                max_steps=40,
                config=ExecutionConfig(incremental=incremental),
            )
            outcome = {"keys": []}
            try:
                for statement in first:
                    processor.execute_user(statement)
                processor.run()
                processor.begin_transaction()
                for statement in second:
                    processor.execute_user(statement)
                result = processor.run()
                outcome["second"] = (
                    result.outcome,
                    result.rules_considered,
                    tuple(result.observables),
                )
            except RuleProcessingLimitExceeded:
                outcome["second"] = "exhausted"
            outcome["keys"].append(processor.state_key())
            outcome["final"] = processor.database.canonical()
            results.append(outcome)
        assert results[0] == results[1]


class TestRollbackEquivalence:
    @pytest.fixture
    def schema(self):
        return schema_from_spec({"t": ["id", "v"], "audit": ["id", "event"]})

    def test_rollback_and_fresh_transaction_agree(self, schema):
        source = """
        create rule guard on t when inserted
        if exists (select * from inserted where v > 10)
        then rollback 'v too large'

        create rule note on t when inserted
        then insert into audit (select id, 1 from inserted)
        precedes guard
        """
        ruleset = RuleSet.parse(source, schema)

        records = []
        for incremental in (False, True):
            processor = RuleProcessor(
                ruleset,
                Database(schema),
                config=ExecutionConfig(incremental=incremental),
            )
            keys = []
            # First transaction: triggers the rollback path.
            processor.execute_user("insert into t values (1, 99)")
            keys.append(processor.state_key())
            first = processor.run()
            keys.append(processor.state_key())
            # Second transaction across the rolled-back boundary.
            processor.begin_transaction()
            processor.execute_user("insert into t values (2, 3)")
            keys.append(processor.state_key())
            second = processor.run()
            keys.append(processor.state_key())
            records.append(
                {
                    "first": (first.outcome, first.rules_considered),
                    "second": (second.outcome, second.rules_considered),
                    "observables": tuple(processor.observables),
                    "final": processor.database.canonical(),
                    "keys": keys,
                }
            )
        assert records[0] == records[1]
        assert records[0]["first"][0] == "rolled_back"
        assert records[0]["second"][0] == "quiescent"


class TestExplorationEquivalence:
    def test_explored_graphs_agree(self):
        schema = schema_from_spec(
            {"orders": ["id", "item"], "stock": ["item", "on_hand"]}
        )
        source = """
        create rule a on orders when inserted
        then update stock set on_hand = on_hand + 1
        create rule b on orders when inserted
        then update stock set on_hand = 2
        create rule c on orders when inserted
        then delete from orders where id = 1
        """
        ruleset = RuleSet.parse(source, schema)

        graphs = []
        for incremental in (False, True):
            database = Database(schema)
            database.load("stock", [(0, 0), (1, 5)])
            processor = RuleProcessor(
                ruleset,
                database,
                config=ExecutionConfig(incremental=incremental),
            )
            processor.execute_user("insert into orders values (1, 0)")
            graphs.append(explore(processor))

        scratch, incremental = graphs
        assert scratch.initial == incremental.initial
        assert scratch.edges == incremental.edges
        assert scratch.final_states == incremental.final_states
        assert scratch.final_databases == incremental.final_databases
        assert scratch.observable_streams == incremental.observable_streams
        assert scratch.paths_to_final() == incremental.paths_to_final()


class TestMidSessionEdits:
    """Activation and priority edits between steps change what TR
    yields and what Choose returns without any write to the log; the
    maintained TR must answer exactly as the full scan does."""

    def test_deactivate_and_reactivate_mid_session(self):
        edited_while_triggered = 0
        for seed in range(10):
            site, ruleset, database, statements = generated_session(
                "incremental-activation", seed
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

            scratch, incremental = both_ways(
                ruleset,
                database,
                statements,
                site,
                edits={1: deactivate, 3: reactivate},
            )
            assert scratch == incremental, f"seed {seed}"
            edited_while_triggered += target["triggered"]
        assert edited_while_triggered >= 3

    def test_priority_edits_mid_session(self):
        reordered = 0
        for seed in range(10):
            site, ruleset, database, statements = generated_session(
                "incremental-priorities", seed
            )
            unordered = ruleset.priorities.unordered_pairs()
            direct = sorted(ruleset.priorities.direct_pairs())
            added = unordered[seed % len(unordered)] if unordered else None
            edits = {}
            if added is not None:
                edits[1] = lambda p: p.ruleset.add_priority(*added)
                edits[4] = lambda p: p.ruleset.remove_priority(*added)
            if direct:
                removed = direct[seed % len(direct)]
                edits[2] = lambda p: p.ruleset.remove_priority(*removed)
            scratch, incremental = both_ways(
                ruleset, database, statements, site, edits=edits
            )
            assert scratch == incremental, f"seed {seed}"
            reordered += any(
                set(eligible) != set(triggered)
                for triggered, eligible in zip(
                    scratch["triggered"], scratch["eligible"]
                )
            )
        assert reordered >= 3

    def test_rollback_mid_session_then_next_transaction(self):
        """A rule that rolls back at a random step ends the session; TR
        must come back empty and the next transaction must trigger from
        its own operations only."""
        guard = (
            "create rule guard on t0 when inserted, deleted, updated "
            "then rollback 'guard'"
        )
        rolled_back_mid_session = 0
        for seed in range(10):
            site, generated, database, statements = generated_session(
                "incremental-rollback", seed
            )
            ruleset = RuleSet.parse(
                generated.source() + "\n\n" + guard, generated.schema
            )
            second = RandomInstanceGenerator(
                SESSION_CONFIG
            ).generate_transition(ruleset.schema, seed=site + 77)
            records = []
            for incremental in (False, True):
                processor = RuleProcessor(
                    RuleSet.parse(ruleset.source(), ruleset.schema),
                    database.copy(),
                    strategy=RandomStrategy(site),
                    config=ExecutionConfig(incremental=incremental),
                )
                first = drive(processor, statements)
                processor.begin_transaction()
                records.append((first, drive(processor, second)))
            assert records[0] == records[1], f"seed {seed}"
            first = records[0][0]
            rolled_back_mid_session += (
                first["rolled_back"] and len(first["considered"]) > 1
            )
        assert rolled_back_mid_session >= 2


class TestTraceRunEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_traced_assertion_points_agree(self, seed):
        """``trace_run`` records TR and Choose(TR) at every step and
        reaches its assertion points through the processor's own
        marker moves."""
        site, ruleset, database, statements = generated_session(
            "incremental-trace", seed
        )
        second = RandomInstanceGenerator(SESSION_CONFIG).generate_transition(
            ruleset.schema, seed=site + 77
        )
        records = []
        for incremental in (False, True):
            processor = RuleProcessor(
                ruleset,
                database.copy(),
                strategy=RandomStrategy(site),
                max_steps=40,
                config=ExecutionConfig(incremental=incremental),
            )
            record = []
            try:
                for transition in (statements, second):
                    processor.begin_transaction()
                    for statement in transition:
                        processor.execute_user(statement)
                    result, events = trace_run(processor)
                    record.append(
                        (
                            result.outcome,
                            result.rules_considered,
                            events,
                            processor.state_key(),
                        )
                    )
            except RuleProcessingLimitExceeded:
                record.append("exhausted")
            record.append(processor.database.canonical())
            records.append(record)
        assert records[0] == records[1]


class TestParallelSchedulerEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_sessions_agree(self, seed):
        """The drain's hot UPDATEs probe the ``region`` index; both
        substrates must still consider the same rules and reach the
        same state at every assertion point."""
        before = plan.STATS.snapshot()
        site = derive_seed("incremental-parallel", seed)
        workload = partitioned_workload(
            rows=400, regions=3, seed=site, hot_rows_per_region=3
        )
        records = []
        for incremental in (False, True):
            processor = RuleProcessor(
                workload.ruleset,
                workload.database.copy(),
                strategy=RandomStrategy(site),
                max_steps=500,
                config=ExecutionConfig(incremental=incremental),
            )
            record = []
            for __ in range(2):
                processor.begin_transaction()
                for statement in workload.drain_transition():
                    processor.execute_user(statement)
                result = processor.run()
                record.append(
                    (
                        result.outcome,
                        result.rules_considered,
                        processor.triggered_rules(),
                        processor.state_key(),
                    )
                )
            record.append(processor.database.canonical())
            records.append(record)
        assert records[0] == records[1]
        assert records[0][0][0] == "quiescent"
        assert plan.STATS.delta_since(before)["index_probes"] > 0
