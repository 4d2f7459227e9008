"""Sharded execution agrees with flat execution.

``ExecutionConfig(partitions=P)`` hash-partitions every table with a
declared key: a scan carrying an equality conjunct on the key prunes to
one shard, and every other scan reads the flat table in tid order. Rules
are still considered one at a time by the same loop, so a sharded
session must match a flat one exactly — outcome, the rules considered
in order, the observable stream and the final canonical database — on
the case studies, the drain workload and randomized generated rule
sets.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.processor import RuleProcessor
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from repro.workloads.partitioned import partitioned_workload
from repro.workloads.powernet import power_network_workload
from tests.seeding import derive_seed

FLAT = ExecutionConfig()
SHARDED = ExecutionConfig(partitions=2)


def keyed(database):
    """*database* with every table's first column declared its
    partition key, so the sharded side really shards (the flat side
    ignores the hints)."""
    for table in database.schema:
        database.declare_partition_key(table.name, table.column_names[0])
    return database


def drive(ruleset, database, statements, config, max_steps=200):
    processor = RuleProcessor(
        ruleset, database.copy(), config=config, max_steps=max_steps
    )
    for statement in statements:
        processor.execute_user(statement)
    result = processor.run()
    return {
        "outcome": result.outcome,
        "rules_considered": result.rules_considered,
        "observables": tuple(str(action) for action in result.observables),
        "final": processor.database.canonical(),
    }


def both_ways(ruleset, database, statements, max_steps=200):
    return (
        drive(ruleset, database, statements, FLAT, max_steps),
        drive(ruleset, database, statements, SHARDED, max_steps),
    )


class TestEquivalence:
    def test_powernet_agrees(self):
        workload = power_network_workload()
        before = plan.STATS.snapshot()
        flat, sharded = both_ways(
            workload.ruleset,
            keyed(workload.database),
            workload.overload_transition(),
            max_steps=500,
        )
        assert flat == sharded
        assert flat["outcome"] == "quiescent"
        assert plan.STATS.delta_since(before)["shard_probes"] >= 1

    def test_drain_workload_agrees_and_merges(self):
        """The drain's hot scans prune to one shard, and the sharded
        session still lands where the flat one does."""
        workload = partitioned_workload(
            rows=2000, seed=derive_seed("drain"), hot_rows_per_region=10
        )
        before = plan.STATS.snapshot()
        flat, sharded = both_ways(
            workload.ruleset,
            workload.database,
            workload.drain_transition(),
            max_steps=2000,
        )
        assert flat == sharded
        assert plan.STATS.delta_since(before)["shard_probes"] >= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_sessions_agree(self, seed):
        config = GeneratorConfig(
            n_tables=4,
            n_rules=8,
            p_cross_table=0.5,
            p_observable=0.2,
            rows_per_table=4,
            statements_per_transition=3,
        )
        site = derive_seed("parallel-sessions", seed)
        ruleset = RandomRuleSetGenerator(config, seed=site).generate()
        instances = RandomInstanceGenerator(config)
        database = keyed(
            instances.generate_database(ruleset.schema, seed=site)
        )
        statements = instances.generate_transition(ruleset.schema, seed=site)
        try:
            flat = drive(ruleset, database, statements, FLAT, 60)
        except RuleProcessingLimitExceeded:
            with pytest.raises(RuleProcessingLimitExceeded):
                drive(ruleset, database, statements, SHARDED, 60)
            return
        sharded = drive(ruleset, database, statements, SHARDED, 60)
        assert flat == sharded
