"""The maintained substrate against the log refold.

The processor keeps the paper's state ``(D, TR)`` across steps: TR
rechecked only for rules on written tables (Lemma 4.1), one pending
transition per (table, marker) slice advanced by
:meth:`NetEffect.fold`, the transition tables and indexes built from
each slice, the per-table touch index and copy-on-write forks.
:meth:`RuleProcessor.pending_net_effect` refolds a rule's pending
transition from the log suffix past its marker, and that refold is the
reference. At every step of a session this harness asserts:

(a) ``triggered_rules()`` are the active rules whose refold meets
    ``Triggered-By``, in definition order, and none after a rollback;
(b) ``state_key()`` is the key rebuilt from every rule's refold on its
    own table;
(c) the pending transition the considered rule reads on its own table
    equals its refold, tid for tid, and so do its transition tables
    once they are built.

The sessions are generated (the same generation the validation
oracle's sampling uses) and cross rollback and ``begin_transaction``
boundaries, rule deactivation and priority edits in mid-session,
``trace_run``, ``explore()`` and index-probed UPDATE targets.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.engine import plan
from repro.engine.database import Database
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.runtime.trace import trace_run
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.transitions.net_effect import NetEffect
from repro.transitions.transition_tables import transition_table_overlays
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from repro.workloads.partitioned import partitioned_workload
from tests.seeding import derive_seed


def refold_triggered(processor: RuleProcessor) -> tuple[str, ...]:
    """(a)'s reference: the active rules, in definition order, whose
    refolded pending transition holds a ``Triggered-By`` operation."""
    schema = processor.ruleset.schema
    columns = {table.name: table.column_names for table in schema}
    return tuple(
        rule.name
        for rule in processor.ruleset
        if processor.ruleset.is_active(rule.name)
        and processor.pending_net_effect(rule.name).operations(columns)
        & rule.triggered_by
    )


def refold_state_key(processor: RuleProcessor) -> tuple:
    """(b)'s reference: ``state_key()`` rebuilt from every rule's
    refold on its own table."""
    pending = tuple(
        (
            rule.name,
            processor.pending_net_effect(rule.name)
            .table(rule.table)
            .canonical(),
        )
        for rule in processor.ruleset
    )
    return (processor.rolled_back, processor.database.canonical(), pending)


_TRIGGERED_RULES = RuleProcessor.triggered_rules
_STATE_KEY = RuleProcessor.state_key
_CONSIDER = RuleProcessor.consider


def _checked_triggered_rules(processor: RuleProcessor) -> tuple[str, ...]:
    triggered = _TRIGGERED_RULES(processor)
    assert triggered == refold_triggered(processor)
    assert not (processor.rolled_back and triggered)
    return triggered


def _checked_state_key(processor: RuleProcessor) -> tuple:
    key = _STATE_KEY(processor)
    assert key == refold_state_key(processor)
    return key


def _checked_consider(processor, rule_name: str, *, eligible=None):
    if eligible is None:
        eligible = processor.eligible_rules()
    if rule_name.lower() not in eligible:
        return _CONSIDER(processor, rule_name, eligible=eligible)  # raises
    rule = processor.ruleset.rule(rule_name)
    refold = processor.pending_net_effect(rule.name)
    pending = processor._slices[rule.table, processor.markers[rule.name]]
    assert pending.net.table(rule.table) == refold.table(rule.table)
    outcome = _CONSIDER(processor, rule_name, eligible=eligible)
    columns = processor.ruleset.schema.table(rule.table).column_names
    assert pending.overlays == transition_table_overlays(
        refold, rule.table, columns
    )
    return outcome


@contextlib.contextmanager
def checked_against_refold():
    """Within the block every processor checks (a) at each
    ``triggered_rules()``, (b) at each ``state_key()`` and (c) at each
    ``consider()`` — so ``run()``, ``trace_run``, ``explore()`` and
    forks are checked at every step and every state they reach.
    Re-entrant: a nested block checks once."""
    if RuleProcessor.consider is _checked_consider:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        for name, checked in (
            ("triggered_rules", _checked_triggered_rules),
            ("state_key", _checked_state_key),
            ("consider", _checked_consider),
        ):
            patch.setattr(RuleProcessor, name, checked)
        yield


def drive(
    processor: RuleProcessor, statements, max_steps: int = 40, edits=None
) -> dict:
    """Run one session step by step, checked against the refold.

    Uses the step-by-step API (not :meth:`run`) and asserts (a) at
    every step, (b) after every consideration and (c) at every
    consideration, recording TR, ``Choose(TR)``, the rules considered
    and the keys. *edits* maps a step number to a callable applied to
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
    due = sorted((edits or {}).items())
    with checked_against_refold():
        for statement in statements:
            processor.execute_user(statement)
        record["keys"].append(processor.state_key())
        steps = 0
        while True:
            while due and due[0][0] <= steps:
                due.pop(0)[1](processor)
            triggered = processor.triggered_rules()
            eligible = processor.eligible_rules()
            assert eligible == processor.ruleset.choose(triggered)
            record["triggered"].append(triggered)
            record["eligible"].append(eligible)
            if not eligible and due and not processor.rolled_back:
                due.pop(0)[1](processor)
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


def checked_run(
    ruleset, database, statements, seed, max_steps=40, edits=None
):
    """One session driven and checked against the refold, on its own
    parse of the rule set (so edits stay inside the session) and its
    own copy of the database."""
    processor = RuleProcessor(
        RuleSet.parse(ruleset.source(), ruleset.schema),
        database.copy(),
        strategy=RandomStrategy(seed),
    )
    return drive(processor, statements, max_steps=max_steps, edits=edits)


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

    def processor(self, ruleset):
        database = Database(ruleset.schema)
        database.load("t", [(1, 1), (2, 2)])
        return RuleProcessor(ruleset, database)

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
        which the refold's operation set counts as an update of v; the
        early-exit recheck must agree."""
        processor = self.processor(ruleset)
        processor.execute_user(
            "update t set id = id + 10, v = 1.0 where id = 1"
        )
        with checked_against_refold():
            assert processor.triggered_rules() == ("on_v", "on_id")


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_sessions_agree(self, seed):
        site, ruleset, database, statements = generated_session(
            "incremental-sessions", seed
        )
        checked_run(ruleset, database, statements, site)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_assertion_points_agree(self, seed):
        """Quiescence advances every marker; the next assertion point's
        transitions must compose from its own operations only."""
        config = GeneratorConfig(n_tables=3, n_rules=5, rows_per_table=3)
        site = derive_seed("incremental-two-points", seed)
        ruleset = RandomRuleSetGenerator(config, seed=100 + site).generate()
        instances = RandomInstanceGenerator(config)
        database = instances.generate_database(ruleset.schema, seed=site)
        first = instances.generate_transition(ruleset.schema, seed=site)
        second = instances.generate_transition(ruleset.schema, seed=site + 77)

        processor = RuleProcessor(
            ruleset,
            database.copy(),
            strategy=RandomStrategy(site),
            max_steps=40,
        )
        with checked_against_refold():
            try:
                for statement in first:
                    processor.execute_user(statement)
                processor.run()
                processor.begin_transaction()
                for statement in second:
                    processor.execute_user(statement)
                processor.run()
            except RuleProcessingLimitExceeded:
                pass
            processor.state_key()


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
        processor = RuleProcessor(ruleset, Database(schema))
        with checked_against_refold():
            # First transaction: triggers the rollback path.
            processor.execute_user("insert into t values (1, 99)")
            processor.state_key()
            first = processor.run()
            processor.state_key()
            assert processor.triggered_rules() == ()
            # Second transaction across the rolled-back boundary.
            processor.begin_transaction()
            processor.execute_user("insert into t values (2, 3)")
            processor.state_key()
            second = processor.run()
            processor.state_key()
        assert (first.outcome, first.rules_considered) == (
            "rolled_back",
            ["note", "guard"],
        )
        assert (second.outcome, second.rules_considered) == (
            "quiescent",
            ["note", "guard"],
        )
        assert dict(processor.database.canonical()) == {
            "audit": ((2, 1),),
            "t": ((2, 3),),
        }


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
        database = Database(schema)
        database.load("stock", [(0, 0), (1, 5)])
        processor = RuleProcessor(ruleset, database)
        processor.execute_user("insert into orders values (1, 0)")
        with checked_against_refold():
            graph = explore(processor)
        # c untriggers whatever has not run yet (the insert and its
        # delete cancel); a and b do not commute
        assert sorted(
            dict(final)["stock"] for final in graph.final_databases.values()
        ) == [
            ((0, 0), (1, 5)),  # c
            ((0, 1), (1, 6)),  # a, c
            ((0, 2), (1, 2)),  # a, b, c
            ((0, 2), (1, 2)),  # b, c: a's pending transition stays empty
            ((0, 3), (1, 3)),  # b, a, c
        ]
        assert graph.paths_to_final() == 5
        assert not graph.truncated


class TestMidSessionEdits:
    """Activation and priority edits between steps change what TR
    yields and what Choose returns without any write to the log; the
    maintained TR must answer exactly as the refold does."""

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

            checked_run(
                ruleset,
                database,
                statements,
                site,
                edits={1: deactivate, 3: reactivate},
            )
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
            record = checked_run(
                ruleset, database, statements, site, edits=edits
            )
            reordered += any(
                set(eligible) != set(triggered)
                for triggered, eligible in zip(
                    record["triggered"], record["eligible"]
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
            processor = RuleProcessor(
                ruleset, database.copy(), strategy=RandomStrategy(site)
            )
            first = drive(processor, statements)
            processor.begin_transaction()
            drive(processor, second)
            rolled_back_mid_session += (
                first["rolled_back"] and len(first["considered"]) > 1
            )
        assert rolled_back_mid_session >= 2


class TestTraceRunEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_traced_assertion_points_agree(self, seed):
        """``trace_run`` records TR and Choose(TR) at every step and
        reaches its assertion points through the processor's own
        marker moves; each event's TR is the refold's."""
        site, ruleset, database, statements = generated_session(
            "incremental-trace", seed
        )
        second = RandomInstanceGenerator(SESSION_CONFIG).generate_transition(
            ruleset.schema, seed=site + 77
        )
        processor = RuleProcessor(
            ruleset,
            database.copy(),
            strategy=RandomStrategy(site),
            max_steps=40,
        )
        with checked_against_refold():
            try:
                for transition in (statements, second):
                    processor.begin_transaction()
                    for statement in transition:
                        processor.execute_user(statement)
                    result, events = trace_run(processor)
                    assert [event.rule for event in events[:-1]] == (
                        result.rules_considered
                    )
                    processor.state_key()
            except RuleProcessingLimitExceeded:
                pass


class TestParallelSchedulerEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_sessions_agree(self, seed):
        """The drain's hot UPDATEs probe the ``region`` index; TR, the
        slices and the key must still follow the refold at every
        step."""
        before = plan.STATS.snapshot()
        site = derive_seed("incremental-parallel", seed)
        workload = partitioned_workload(
            rows=400, regions=3, seed=site, hot_rows_per_region=3
        )
        processor = RuleProcessor(
            workload.ruleset,
            workload.database.copy(),
            strategy=RandomStrategy(site),
            max_steps=500,
        )
        outcomes = []
        with checked_against_refold():
            for __ in range(2):
                processor.begin_transaction()
                for statement in workload.drain_transition():
                    processor.execute_user(statement)
                outcomes.append(processor.run().outcome)
                processor.state_key()
        assert outcomes == ["quiescent", "quiescent"]
        assert plan.STATS.delta_since(before)["index_probes"] > 0


class TestTheCheckIsLive:
    """The reference check fails a processor whose maintained state
    drifts from the log."""

    SOURCE = """
    create rule a on t when inserted then insert into u values (1)
    create rule b on t when inserted then insert into u values (2)
    """

    def processor(self):
        schema = schema_from_spec({"t": ["k"], "u": ["k"]})
        processor = RuleProcessor(
            RuleSet.parse(self.SOURCE, schema), Database(schema)
        )
        processor.execute_user("insert into t values (1)")
        assert processor.triggered_rules() == ("a", "b")
        return processor

    def test_a_rule_missing_from_tr_fails_the_check(self):
        processor = self.processor()
        processor._triggered.discard("b")
        with pytest.raises(AssertionError):
            drive(processor, [])

    def test_a_stale_slice_fails_the_check(self):
        processor = self.processor()
        processor._slices["t", 0].net = NetEffect()  # the fold forgotten
        with pytest.raises(AssertionError):
            drive(processor, [])
