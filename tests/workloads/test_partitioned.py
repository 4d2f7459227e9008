"""Structure and termination of the partitioned drain workload."""

import pytest

from repro.analysis.derived import DerivedDefinitions
from repro.analysis.partitioning import partition_rules
from repro.runtime.processor import RuleProcessor
from repro.workloads.partitioned import (
    DOMAINS,
    PartitionedWorkload,
    partitioned_workload,
)


@pytest.fixture(scope="module")
def workload() -> PartitionedWorkload:
    return partitioned_workload(rows=800, regions=4, hot_rows_per_region=5)


class TestStructure:
    def test_row_counts(self, workload):
        database = workload.database
        for domain in DOMAINS:
            assert len(database.table(domain)) == 800 // len(DOMAINS)
            assert len(database.table(f"{domain}_ctl")) == 4

    def test_one_rule_per_domain_region(self, workload):
        assert len(list(workload.ruleset)) == len(DOMAINS) * 4
        names = {rule.name for rule in workload.ruleset}
        assert names == {
            f"{domain}_r{region}"
            for domain in DOMAINS
            for region in range(4)
        }

    def test_domains_form_static_rule_partitions(self, workload):
        """The four domains share no tables, so partition_rules splits
        the rule set into exactly one group per domain."""
        definitions = DerivedDefinitions(workload.ruleset)
        partitions = partition_rules(
            definitions, workload.ruleset.priorities
        )
        assert len(partitions) == len(DOMAINS)
        for group in partitions:
            prefixes = {name.rsplit("_r", 1)[0] for name in group}
            assert len(prefixes) == 1

    def test_transition_is_deterministic_per_seed(self):
        first = partitioned_workload(rows=400, seed=7, hot_rows_per_region=5)
        second = partitioned_workload(rows=400, seed=7, hot_rows_per_region=5)
        assert first.drain_transition() == second.drain_transition()
        assert first.database.canonical() == second.database.canonical()
        other = partitioned_workload(rows=400, seed=8, hot_rows_per_region=5)
        assert other.pending != first.pending


class TestTermination:
    @pytest.mark.parametrize("regions", [1, 4])
    def test_drain_reaches_quiescence(self, regions):
        workload = partitioned_workload(
            rows=400, regions=regions, hot_rows_per_region=5
        )
        processor = RuleProcessor(
            workload.ruleset, workload.database.copy(), max_steps=500
        )
        for statement in workload.drain_transition():
            processor.execute_user(statement)
        result = processor.run()
        assert result.outcome == "quiescent"
        # Drained: no control row retains pending work.
        for domain in DOMAINS:
            control = processor.database.table(f"{domain}_ctl")
            for values in control.value_tuples():
                assert values[1] == 0
