"""The rule processor compacts its delta log at commit.

``RuleProcessor.commit()`` drops the log's stored primitives once every
reader has consumed them: every rule marker and the rete cursor sit at
the log's end. Each test runs the same session twice, once with
compaction disabled, and asserts the two runs cannot be told apart:
the same outcomes, rules considered, databases, log positions, forks
and execution graphs. Exploring after a compaction checks every state
it reaches against the log refold
(``tests/runtime/test_incremental_equivalence.py``).
"""

import contextlib
import random

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec
from repro.transitions.delta import DeltaLog
from repro.workloads.powernet import scaled_power_network_workload
from tests.runtime.test_incremental_equivalence import checked_against_refold
from tests.seeding import derive_seed

NODES = 30

CONFIGS = {
    "planned": ExecutionConfig(),
    "rete": ExecutionConfig(matching="rete"),
}


@contextlib.contextmanager
def compaction_disabled():
    """Every ``DeltaLog.compact()`` in the block keeps its primitives."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeltaLog, "compact", lambda self: 0)
        yield


def overload(node: int) -> list[str]:
    """The case study's overload transition aimed at *node*."""
    branch = NODES if node == 1 else NODES + node - 1
    return [
        f"update node set demand = demand + 3 where id = {node}",
        f"update branch set load = load + 3 where id = {branch}",
    ]


def powernet(config: ExecutionConfig) -> RuleProcessor:
    workload = scaled_power_network_workload(NODES)
    return RuleProcessor(workload.ruleset, workload.database, config=config)


def drive(processor: RuleProcessor, rng: random.Random, ops: int):
    """*ops* committed overload transactions: per op, what a caller sees
    and how many primitives the log still stores."""
    seen, stored = [], []
    for _ in range(ops):
        for statement in overload(rng.randint(1, NODES)):
            processor.execute_user(statement)
        result = processor.run()
        processor.commit()
        seen.append(
            (
                result.outcome,
                result.rules_considered,
                processor.log.position,
                processor.database.canonical(),
            )
        )
        stored.append(len(processor.log.all()))
    return seen, stored


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_committed_ops_store_no_primitives(name):
    seed = derive_seed("log-compaction-ops", name)
    with compaction_disabled():
        reference = powernet(CONFIGS[name])
        expected, kept = drive(reference, random.Random(seed), 40)
    processor = powernet(CONFIGS[name])
    seen, stored = drive(processor, random.Random(seed), 40)
    assert seen == expected
    assert stored == [0] * 40
    # the reference kept every primitive it ever appended
    assert kept[-1] == reference.log.position > 0


@pytest.mark.parametrize("name", ["planned", "rete"])
def test_fork_and_explore_after_compaction(name):
    seed = derive_seed("log-compaction-explore", name)

    def session():
        processor = powernet(CONFIGS[name])
        rng = random.Random(seed)
        drive(processor, rng, 8)
        for statement in overload(rng.randint(1, NODES)):
            processor.execute_user(statement)
        with checked_against_refold():
            graph = explore(processor)
        fork = processor.fork()
        forked = fork.run()
        result = processor.run()
        return (
            processor,
            graph,
            (forked.rules_considered, fork.database.canonical()),
            (result.rules_considered, processor.database.canonical()),
        )

    with compaction_disabled():
        __, expected_graph, expected_fork, expected_run = session()
    processor, graph, fork, run = session()
    assert graph.edges == expected_graph.edges
    assert graph.final_databases == expected_graph.final_databases
    assert graph.observable_streams == expected_graph.observable_streams
    assert graph.state_count > 1 and not graph.truncated
    assert fork == expected_fork
    assert run == expected_run
    processor.commit()
    assert processor.log.all() == []


ROLLBACK_RULES = """
create rule copy on t when inserted then insert into u select id, v from inserted

create rule guard on u when inserted
if exists (select * from inserted where w < 0)
then rollback 'negative'
"""


@pytest.mark.parametrize("name", ["planned", "rete"])
def test_rollback_after_compaction(name):
    schema = schema_from_spec({"t": ["id", "v"], "u": ["id", "w"]})
    ruleset = RuleSet.parse(ROLLBACK_RULES, schema)
    script = [
        "insert into t values (1, 10)",
        "insert into t values (2, 20)",
        "insert into t values (3, -1)",  # rolls back
        "insert into t values (4, 40)",
    ]

    def session():
        processor = RuleProcessor(ruleset, Database(schema), config=CONFIGS[name])
        seen = []
        for statement in script:
            processor.execute_user(statement)
            result = processor.run()
            if result.outcome == "rolled_back":
                processor.begin_transaction()
            else:
                processor.commit()
            seen.append(
                (
                    result.outcome,
                    result.rules_considered,
                    processor.log.position,
                    processor.database.canonical(),
                    len(processor.log.all()),
                )
            )
        return seen

    with compaction_disabled():
        expected = session()
    seen = session()
    assert [step[:4] for step in seen] == [step[:4] for step in expected]
    assert [step[0] for step in seen] == [
        "quiescent", "quiescent", "rolled_back", "quiescent"
    ]
    # committed steps drop everything; the rolled-back one keeps its
    # undone primitives until the next commit
    assert [step[4] for step in seen] == [0, 0, 2, 0]
    final = dict(seen[-1][3])
    assert final["t"] == ((1, 10), (2, 20), (4, 40))


def test_commit_with_a_pending_rule_keeps_the_log():
    """A commit before run() leaves rule markers behind the log's end:
    the pending transition must survive it."""
    with compaction_disabled():
        reference = powernet(CONFIGS["planned"])
        for statement in overload(5):
            reference.execute_user(statement)
        reference.commit()
        expected = reference.run()
    processor = powernet(CONFIGS["planned"])
    for statement in overload(5):
        processor.execute_user(statement)
    processor.commit()
    assert len(processor.log.all()) == processor.log.position == 2
    result = processor.run()
    assert result.rules_considered == expected.rules_considered
    assert processor.database.canonical() == reference.database.canonical()
    processor.commit()
    assert processor.log.all() == []


def test_rete_cursor_behind_the_log_end_keeps_the_log():
    """A network that has not folded the last action's primitives still
    needs them: the commit after it must keep the log."""
    schema = schema_from_spec({"t": ["id", "v"], "u": ["id", "w"]})
    ruleset = RuleSet.parse(
        """
        create rule r on t when inserted
        if not exists (select * from u where w > 100)
        then insert into u select id, v from inserted
        """,
        schema,
    )
    processor = RuleProcessor(ruleset, Database(schema), config=CONFIGS["rete"])
    processor.execute_user("insert into t values (1, 500)")
    processor.run()
    processor.commit()
    # the verdict came before the action's insert into u
    assert len(processor.log.all()) == processor.log.position == 2
    processor.execute_user("insert into t values (2, 7)")
    processor.run()
    processor.commit()
    assert processor.log.all() == []
    assert dict(processor.database.canonical())["u"] == ((1, 500),)
