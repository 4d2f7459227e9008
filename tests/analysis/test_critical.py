"""Critical-instance saturation, witness search, and witness replay."""

import pytest

from repro.analysis.critical import Witness, find_witness, replay_witness
from repro.analysis.termination import (
    ANALYZER_CRITICAL,
    VERDICT_AUTO,
    VERDICT_UNKNOWN,
    VERDICT_WITNESS,
    build_termination_report,
)
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec({"a": ["x"], "b": ["x"], "cd": ["v"]})


CLAMP = """
create rule clamp_low on cd when inserted
then update cd set v = 1 where v = 9

create rule clamp_high on cd when inserted
then update cd set v = 2 where v = 8

create rule spike on cd when updated(v)
if exists (select * from new_updated where v > 5)
then insert into cd values (9)
"""

GROWER = """
create rule storm on a when inserted
then insert into a values (1)
"""

CHURN = """
create rule churn on a when inserted
then delete from a where x = 1;
     insert into a values (1)
"""


class TestTailSaturation:
    def test_clamped_cycle_needs_the_critical_layer(self, schema):
        # Two updaters of cd.v defeat the stratified sole-updater
        # attribution, but the saturation shows every post-update value
        # is in {1, 2}, so spike's tail condition v > 5 is dead.
        ruleset = RuleSet.parse(CLAMP, schema)
        stratified = build_termination_report(ruleset, mode="stratified")
        critical = build_termination_report(ruleset, mode="critical")
        assert not stratified.terminates
        assert critical.terminates
        verdict = critical.verdict_for("spike")
        assert verdict.verdict == VERDICT_AUTO
        assert verdict.analyzer == ANALYZER_CRITICAL

    def test_live_tail_is_not_certified(self, schema):
        # Raising the clamp targets above the threshold keeps spike
        # live in the tail; the saturation must not certify.
        source = CLAMP.replace("v = 1 where", "v = 7 where")
        ruleset = RuleSet.parse(source, schema)
        critical = build_termination_report(
            ruleset, mode="critical", find_witnesses=False
        )
        assert critical.verdict_for("spike").verdict != VERDICT_AUTO


class TestFindWitness:
    def test_grower_yields_pumped_growth(self, schema):
        ruleset = RuleSet.parse(GROWER, schema)
        witness = find_witness(ruleset, frozenset({"storm"}))
        assert witness is not None
        assert witness.kind == "pumped-growth"
        assert "storm" in witness.cycle
        assert replay_witness(witness, ruleset=ruleset).valid

    def test_churn_yields_state_cycle(self, schema):
        ruleset = RuleSet.parse(CHURN, schema)
        witness = find_witness(ruleset, frozenset({"churn"}))
        assert witness is not None
        assert witness.kind == "state-cycle"
        assert replay_witness(witness, ruleset=ruleset).valid

    def test_terminating_component_yields_none(self, schema):
        source = """
        create rule gc on a when deleted
        then delete from a where x = 0
        """
        ruleset = RuleSet.parse(source, schema)
        assert find_witness(ruleset, frozenset({"gc"})) is None

    def test_unevaluable_rule_yields_none_and_stays_unknown(self, schema):
        # No table has a column z, so the condition cannot be evaluated
        # on any seeded instance; the search proves nothing either way.
        source = """
        create rule bump on cd when inserted, updated
        if z > 0
        then update cd set v = v + 1
        """
        ruleset = RuleSet.parse(source, schema)
        assert find_witness(ruleset, frozenset({"bump"})) is None
        report = build_termination_report(
            ruleset, mode="critical", rules_source=source
        )
        assert report.verdict_for("bump").verdict == VERDICT_UNKNOWN


class TestReplayWitness:
    def test_witness_round_trips_and_replays_from_source(self, schema):
        ruleset = RuleSet.parse(GROWER, schema)
        witness = find_witness(
            ruleset, frozenset({"storm"}), rules_source=GROWER
        )
        clone = Witness.from_dict(witness.to_dict())
        # No ruleset passed: replay reparses the embedded source.
        result = replay_witness(clone)
        assert result.valid
        assert result.steps > 0

    def test_tampered_cycle_fails_replay(self, schema):
        ruleset = RuleSet.parse(GROWER + CHURN, schema)
        witness = find_witness(ruleset, frozenset({"storm"}))
        tampered = Witness.from_dict(
            {**witness.to_dict(), "cycle": ["churn"]}
        )
        result = replay_witness(tampered, ruleset=ruleset)
        assert not result.valid
        assert result.reason

    def test_missing_rules_source_is_an_error_not_a_crash(self, schema):
        ruleset = RuleSet.parse(GROWER, schema)
        witness = find_witness(ruleset, frozenset({"storm"}))
        stripped = Witness.from_dict(
            {**witness.to_dict(), "rules_source": None}
        )
        result = replay_witness(stripped)
        assert not result.valid

    def test_report_witness_is_replay_validated_before_emission(
        self, schema
    ):
        ruleset = RuleSet.parse(GROWER, schema)
        report = build_termination_report(
            ruleset, mode="critical", rules_source=GROWER
        )
        verdict = report.verdict_for("storm")
        assert verdict.verdict == VERDICT_WITNESS
        assert replay_witness(verdict.witness).valid
