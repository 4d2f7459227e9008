"""Planned sessions agree with the reference path end to end.

The planned executor narrows an UPDATE/DELETE target carrying a
``col = <constant>`` conjunct to the bucket the table's equality index
returns, and SELECT const probes read the same indexes; the reference
path (``ExecutionConfig(matching="naive", planner=False)``) evaluates
every WHERE on every row. Rules are considered one at a time by the
same loop either way, so a planned session must match a reference one
exactly — outcome, the rules considered in order, the observable stream
and the final canonical database — on the case studies, the drain
workload and randomized generated rule sets.
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

PLANNED = ExecutionConfig()
REFERENCE = ExecutionConfig(matching="naive", planner=False)


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
    """(planned, reference) runs; the planned one's index probes are
    counted in ``plan.STATS``."""
    reference = drive(ruleset, database, statements, REFERENCE, max_steps)
    return drive(ruleset, database, statements, PLANNED, max_steps), reference


class TestEquivalence:
    def test_powernet_agrees(self):
        workload = power_network_workload()
        before = plan.STATS.snapshot()
        planned, reference = both_ways(
            workload.ruleset,
            workload.database,
            workload.overload_transition(),
            max_steps=500,
        )
        assert planned == reference
        assert planned["outcome"] == "quiescent"
        assert plan.STATS.delta_since(before)["index_probes"] >= 1

    def test_drain_workload_agrees_and_merges(self):
        """The drain's hot UPDATEs probe the ``region`` index, and the
        planned session still lands where the reference one does."""
        workload = partitioned_workload(
            rows=2000, seed=derive_seed("drain"), hot_rows_per_region=10
        )
        before = plan.STATS.snapshot()
        planned, reference = both_ways(
            workload.ruleset,
            workload.database,
            workload.drain_transition(),
            max_steps=2000,
        )
        assert planned == reference
        assert plan.STATS.delta_since(before)["index_probes"] >= 1

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
        database = instances.generate_database(ruleset.schema, seed=site)
        statements = instances.generate_transition(ruleset.schema, seed=site)
        try:
            reference = drive(ruleset, database, statements, REFERENCE, 60)
        except RuleProcessingLimitExceeded:
            with pytest.raises(RuleProcessingLimitExceeded):
                drive(ruleset, database, statements, PLANNED, 60)
            return
        assert drive(ruleset, database, statements, PLANNED, 60) == reference
