"""Partial confluence tests — Definition 7.1 and Theorem 7.2."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.derived import DerivedDefinitions
from repro.analysis.partial_confluence import (
    PartialConfluenceAnalyzer,
    significant_rules,
)
from repro.errors import SchemaError
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from tests.seeding import derive_seed


@pytest.fixture
def schema():
    return schema_from_spec(
        {
            "data": ["id", "v"],
            "scratch": ["id", "v"],
            "src": ["id", "v"],
        }
    )


def setup(source, schema):
    ruleset = RuleSet.parse(source, schema)
    definitions = DerivedDefinitions(ruleset)
    commutativity = CommutativityAnalyzer(definitions)
    analyzer = PartialConfluenceAnalyzer(
        definitions, ruleset.priorities, commutativity
    )
    return ruleset, definitions, commutativity, analyzer


SCRATCHY = """
create rule keep_total on src when inserted
then update data set v = v + 1

create rule scribble_a on src when inserted
then update scratch set v = 1

create rule scribble_b on src when inserted
then update scratch set v = 2
"""


class TestSignificantRules:
    def test_seed_is_rules_writing_the_tables(self, schema):
        __, definitions, commutativity, __ = setup(SCRATCHY, schema)
        sig = significant_rules(definitions, commutativity, ["data"])
        assert sig == frozenset({"keep_total"})

    def test_closure_under_noncommutativity(self, schema):
        source = SCRATCHY + """
create rule conflicting on src when inserted
then update data set v = 0
"""
        __, definitions, commutativity, __ = setup(source, schema)
        sig = significant_rules(definitions, commutativity, ["data"])
        # conflicting writes data (seed); keep_total writes data (seed);
        # they don't commute with each other but that's within Sig already.
        assert sig == frozenset({"keep_total", "conflicting"})

    def test_noncommuting_outsider_pulled_in(self, schema):
        source = """
        create rule writes_data on src when inserted
        then update data set v = v + 1

        create rule reads_data on src when inserted
        then update scratch set v = (select max(v) from data)
        """
        __, definitions, commutativity, __ = setup(source, schema)
        sig = significant_rules(definitions, commutativity, ["data"])
        # reads_data reads what writes_data writes -> noncommutative ->
        # joins Sig even though it only writes scratch.
        assert sig == frozenset({"writes_data", "reads_data"})

    def test_certification_shrinks_sig(self, schema):
        source = """
        create rule writes_data on src when inserted
        then update data set v = v + 1

        create rule reads_data on src when inserted
        then update scratch set v = (select max(v) from data)
        """
        __, definitions, commutativity, __ = setup(source, schema)
        commutativity.certify_commutes("writes_data", "reads_data")
        sig = significant_rules(definitions, commutativity, ["data"])
        assert sig == frozenset({"writes_data"})

    def test_empty_tables_empty_sig(self, schema):
        __, definitions, commutativity, __ = setup(SCRATCHY, schema)
        assert significant_rules(definitions, commutativity, []) == frozenset()


class TestTheorem72:
    def test_scratch_divergence_does_not_block_data_confluence(self, schema):
        *_, analyzer = setup(SCRATCHY, schema)
        analysis = analyzer.analyze(["data"])
        assert analysis.confluent_with_respect_to_tables
        assert analysis.significant == frozenset({"keep_total"})

    def test_full_confluence_fails_on_same_rule_set(self, schema):
        from repro.analysis.confluence import ConfluenceAnalyzer

        ruleset, definitions, commutativity, __ = setup(SCRATCHY, schema)
        full = ConfluenceAnalyzer(
            definitions, ruleset.priorities, commutativity
        ).analyze()
        assert not full.requirement_holds

    def test_partial_confluence_fails_on_significant_conflict(self, schema):
        *_, analyzer = setup(SCRATCHY, schema)
        analysis = analyzer.analyze(["scratch"])
        assert not analysis.confluent_with_respect_to_tables
        assert not analysis.confluence.requirement_holds

    @pytest.mark.parametrize("tables", [["ghost"], ["data", "Ghost"]])
    def test_an_unknown_table_is_refused(self, schema, tables):
        *_, analyzer = setup(SCRATCHY, schema)
        with pytest.raises(SchemaError, match="unknown table"):
            analyzer.analyze(tables)

    def test_sig_termination_is_required(self, schema):
        source = """
        create rule looping on data when inserted, updated(v)
        then update data set v = v + 1
        """
        *_, analyzer = setup(source, schema)
        analysis = analyzer.analyze(["data"])
        assert not analysis.termination.guaranteed
        assert not analysis.confluent_with_respect_to_tables

    def test_certified_termination_carries_over(self, schema):
        from repro.analysis.termination import TerminationAnalyzer

        source = """
        create rule looping on data when inserted, updated(v)
        then update data set v = v + 1
        """
        ruleset = RuleSet.parse(source, schema)
        definitions = DerivedDefinitions(ruleset)
        termination = TerminationAnalyzer(definitions)
        termination.certify_rule("looping")
        analyzer = PartialConfluenceAnalyzer(
            definitions,
            ruleset.priorities,
            termination_analyzer=termination,
        )
        analysis = analyzer.analyze(["data"])
        assert analysis.termination.guaranteed
        assert analysis.confluent_with_respect_to_tables

    def test_cycle_outside_sig_does_not_matter(self, schema):
        # A nonterminating loop on scratch must not block confluence
        # w.r.t. data (footnote 7: only Sig must terminate on its own).
        source = """
        create rule keep_total on src when inserted
        then update data set v = v + 1

        create rule loop_scratch on scratch when inserted, updated(v)
        then update scratch set v = v + 1
        """
        *_, analyzer = setup(source, schema)
        analysis = analyzer.analyze(["data"])
        assert analysis.significant == frozenset({"keep_total"})
        assert analysis.confluent_with_respect_to_tables

    def test_describe(self, schema):
        *_, analyzer = setup(SCRATCHY, schema)
        good = analyzer.analyze(["data"]).describe()
        assert "confluent with respect to" in good
        bad = analyzer.analyze(["scratch"]).describe()
        assert "may not" in bad


#: Analyzes one generated 40-rule program (the benchmark's analyze_rules
#: shape) and prints the report's stats without wall-clock timings.
ANALYZE_ONE_PROGRAM = """
import json, sys
from repro.analysis.analyzer import RuleAnalyzer
from repro.workloads.generator import GeneratorConfig, RandomRuleSetGenerator

config = GeneratorConfig(
    n_tables=8, n_rules=40, p_observable=0.1, p_priority=0.02
)
ruleset = RandomRuleSetGenerator(config).generate(seed=int(sys.argv[1]))
stats = RuleAnalyzer(ruleset).analyze().stats
del stats["timings"]
print(json.dumps(stats, sort_keys=True))
"""


class TestHashSeedIndependence:
    def test_analysis_counters_repeat_under_two_hash_seeds(self):
        """Sig grows in definition order, so the order of the engine's
        commute questions, and with it every judgment counter, is the
        same in every process whatever PYTHONHASHSEED salts."""
        seed = derive_seed("sig-hash-seed-independence")
        source_root = Path(repro.__file__).resolve().parent.parent
        results = []
        for hash_seed in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, "-c", ANALYZE_ONE_PROGRAM, str(seed)],
                env=dict(
                    os.environ,
                    PYTHONHASHSEED=hash_seed,
                    PYTHONPATH=str(source_root),
                ),
                capture_output=True,
                text=True,
                check=True,
            )
            results.append(json.loads(completed.stdout))
        assert results[0]["lemma_judgments"] > 0
        assert results[0] == results[1]
