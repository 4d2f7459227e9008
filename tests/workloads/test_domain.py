"""Structural tests for the domain workload generators.

The 10⁶-row generators (:mod:`repro.workloads.iot`,
:mod:`repro.workloads.fraud`), the scaled powernet ring, and
:class:`~repro.workloads.generator.StratifiedProgramGenerator` are the
inputs the declarative cross-check scales on — so their construction
invariants (stratification, region consistency, partition hints,
bounded cascades) get checked directly here at small sizes.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig
from repro.runtime.processor import RuleProcessor
from repro.semantics import classify_program
from repro.workloads.fraud import fraud_workload
from repro.workloads.generator import GeneratorConfig, StratifiedProgramGenerator
from repro.workloads.iot import iot_workload
from repro.workloads.powernet import (
    power_network_workload,
    scaled_power_network_workload,
)


class TestIotWorkload:
    def test_instance_shape(self):
        workload = iot_workload(rows=1_000, regions=4, devices_per_region=8)
        assert len(workload.database.table("readings")) == 1_000
        assert len(workload.database.table("device_status")) == 32
        assert len(workload.database.table("region_health")) == 4
        assert workload.certified_confluent

    def test_rows_are_region_consistent(self):
        """Every reading and status row places its device in the region
        ``device % regions`` — the invariant the per-region rule slices
        rely on for disjointness."""
        workload = iot_workload(rows=500, regions=4, devices_per_region=8)
        for _, device, region, _ in workload.database.table(
            "readings"
        ).value_tuples():
            assert region == device % 4
        for device, region, _, _ in workload.database.table(
            "device_status"
        ).value_tuples():
            assert region == device % 4

    def test_batch_drives_the_cascade_to_quiescence(self):
        workload = iot_workload(rows=2_000, regions=2, devices_per_region=4)
        database = workload.database.copy()
        processor = RuleProcessor(
            workload.ruleset,
            database,
            config=ExecutionConfig(matching="planned"),
        )
        for statement in workload.ingest_transition():
            processor.execute_user(statement)
        processor.run()
        # ~5% of 1024 batch readings clear the alert threshold, so at
        # least one region must have raised its alert level.
        health = database.table("region_health").value_tuples()
        assert any(row[1] > 0 for row in health), health


class TestFraudWorkload:
    def test_instance_shape(self):
        workload = fraud_workload(
            rows=1_000, regions=4, accounts_per_region=8
        )
        assert len(workload.database.table("transactions")) == 1_000
        assert len(workload.database.table("account_risk")) == 32
        assert len(workload.database.table("region_audit")) == 4
        assert workload.certified_confluent

    def test_rows_are_region_consistent(self):
        workload = fraud_workload(
            rows=500, regions=4, accounts_per_region=8
        )
        for _, account, region, _ in workload.database.table(
            "transactions"
        ).value_tuples():
            assert region == account % 4
        for account, region, _, _ in workload.database.table(
            "account_risk"
        ).value_tuples():
            assert region == account % 4

    def test_program_is_stratified(self):
        workload = fraud_workload(rows=100, regions=3, accounts_per_region=4)
        classification = classify_program(
            workload.ruleset,
            certified_confluent=workload.certified_confluent,
        )
        assert classification.label == "stratified-confluent"
        strata = classification.strata
        assert (
            strata["fraud_score_r0"]
            < strata["fraud_hold_r0"]
            < strata["fraud_case_r0"]
        )

    def test_batch_places_holds_and_opens_cases(self):
        workload = fraud_workload(rows=2_000, regions=2, accounts_per_region=4)
        database = workload.database.copy()
        processor = RuleProcessor(
            workload.ruleset,
            database,
            config=ExecutionConfig(matching="planned"),
        )
        for statement in workload.ingest_transition():
            processor.execute_user(statement)
        processor.run()
        held = [
            row
            for row in database.table("account_risk").value_tuples()
            if row[3] == 1
        ]
        assert held, "no account reached the hold threshold"
        audits = database.table("region_audit").value_tuples()
        assert any(row[1] >= 1 for row in audits), audits


class TestScaledPowernet:
    def test_ring_shape(self):
        workload = scaled_power_network_workload(nodes=200)
        assert len(workload.database.table("node")) == 200
        assert len(workload.database.table("branch")) == 200
        assert workload.overload_branch == 200
        branch_ids = {
            row[0] for row in workload.database.table("branch").value_tuples()
        }
        assert workload.overload_branch in branch_ids

    def test_overload_transition_matches_small_instance(self):
        """The scaled variant perturbs the same two entities the 3-node
        case study does, just with a rebased branch id."""
        small = power_network_workload()
        scaled = scaled_power_network_workload(nodes=50)
        small_stmts = small.overload_transition()
        scaled_stmts = scaled.overload_transition()
        assert len(small_stmts) == len(scaled_stmts)
        assert f"id = {scaled.overload_branch}" in scaled_stmts[-1]

    def test_cascade_terminates_on_a_scaled_ring(self):
        workload = scaled_power_network_workload(nodes=300)
        database = workload.database.copy()
        processor = RuleProcessor(
            workload.ruleset,
            database,
            config=ExecutionConfig(matching="planned"),
            max_steps=50_000,
        )
        for statement in workload.overload_transition():
            processor.execute_user(statement)
        processor.run()  # raises RuleProcessingLimitExceeded on runaway
        # The overload really moved load somewhere: the perturbed branch
        # or its neighbors no longer carry the balanced load of 1.
        loads = {
            row[0]: row[3]
            for row in database.table("branch").value_tuples()
        }
        assert any(load != 1 for load in loads.values())


class TestStratifiedProgramGenerator:
    def test_rejects_degenerate_layering(self):
        with pytest.raises(ValueError):
            StratifiedProgramGenerator(GeneratorConfig(), n_layers=1)

    def test_layer_structure(self):
        generator = StratifiedProgramGenerator(
            GeneratorConfig(n_rules=6), n_layers=3
        )
        ruleset = generator.generate(seed=3)
        assert len(ruleset.names) == 6
        for index, name in enumerate(sorted(ruleset.names, key=lambda n: int(n[1:]))):
            assert name == f"s{index}"
            rule = ruleset.rule(name)
            assert rule.table == f"t{index % 2}"

    def test_generated_programs_are_stratified(self):
        for seed in range(12):
            generator = StratifiedProgramGenerator(
                GeneratorConfig(n_rules=6, p_condition=0.6, p_priority=0.3),
                n_layers=2 + seed % 3,
            )
            classification = classify_program(generator.generate(seed))
            assert classification.stratified, f"seed {seed}"

    def test_write_targets_are_private(self):
        """No two rules update the same (table, column): the ownership
        discipline that makes generated programs confluent."""
        generator = StratifiedProgramGenerator(
            GeneratorConfig(n_rules=8), n_layers=4
        )
        ruleset = generator.generate(seed=7)
        targets = []
        for name in ruleset.names:
            rule = ruleset.rule(name)
            for action in rule.actions:
                table = action.table
                columns = tuple(
                    assignment.column for assignment in action.assignments
                )
                targets.append((table, columns))
        assert len(targets) == len(set(targets))
        assert len({t for t, _ in targets}) > 1
