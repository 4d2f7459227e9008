"""Incremental analyzer tests (Section 9 future work, implemented)."""

import pytest

from repro.analysis.analyzer import RuleAnalyzer
from repro.analysis.incremental import IncrementalAnalyzer
from repro.errors import AnalysisError, PriorityCycleError, RuleError
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec(
        {"t": ["id"], "u": ["id"], "x": ["id"], "y": ["id"]}
    )


@pytest.fixture
def analyzer(schema):
    incremental = IncrementalAnalyzer(schema)
    # Two independent partitions: {a, b} over t/u and {c} over x/y.
    incremental.define_rule(
        "create rule a on t when inserted then insert into u values (1) "
        "precedes b"
    )
    incremental.define_rule(
        "create rule b on u when inserted then update u set id = 9"
    )
    incremental.define_rule(
        "create rule c on x when inserted then update y set id = 1"
    )
    return incremental


class TestEditing:
    def test_define_and_list(self, analyzer):
        assert set(analyzer.rule_names) == {"a", "b", "c"}

    def test_redefinition_replaces(self, analyzer):
        analyzer.define_rule(
            "create rule c on x when deleted then update y set id = 2"
        )
        assert len(analyzer.rule_names) == 3

    def test_invalid_rule_rejected_eagerly(self, analyzer):
        with pytest.raises(RuleError):
            analyzer.define_rule(
                "create rule bad on ghost when inserted then delete from t"
            )
        assert "bad" not in analyzer.rule_names

    def test_float_constant_survives_the_stored_source(self, schema):
        # analyze() re-parses the format_rule text define_rule stored,
        # which once rendered 0.00001 as the unreadable 1e-05.
        incremental = IncrementalAnalyzer(schema)
        incremental.define_rule(
            "create rule f on t when inserted "
            "if exists (select * from inserted where id > 0.00001) "
            "then update u set id = 0"
        )
        assert incremental.analyze().terminates

    def test_remove_rule(self, analyzer):
        analyzer.remove_rule("c")
        assert set(analyzer.rule_names) == {"a", "b"}
        with pytest.raises(RuleError):
            analyzer.remove_rule("c")


class TestEditsRefusedAtTheCall:
    """A name or ordering the analysis cannot use raises when it is
    given, as AnalysisEngine and RuleSet.add_priority raise for it, and
    leaves nothing behind for the next analyze()."""

    def test_certify_commutes_with_an_unknown_rule(self, analyzer):
        before = analyzer.analyze()
        with pytest.raises(AnalysisError, match="unknown rule 'ghost'"):
            analyzer.certify_commutes("a", "ghost")
        after = analyzer.analyze()
        assert after.partitions_reused == len(before.partitions)

    def test_certify_termination_of_an_unknown_rule(self, analyzer):
        with pytest.raises(AnalysisError, match="unknown rule 'ghost'"):
            analyzer.certify_termination("Ghost")
        assert analyzer.analyze().terminates

    def test_priority_on_an_unknown_rule(self, analyzer):
        with pytest.raises(RuleError, match="unknown rule 'ghost'"):
            analyzer.add_priority("a", "ghost")
        assert analyzer.analyze().terminates

    def test_priority_that_closes_a_cycle(self, analyzer):
        # a precedes b in the rule text, so b > a would close b > a > b
        with pytest.raises(PriorityCycleError):
            analyzer.add_priority("b", "a")
        analyzer.add_priority("c", "a")  # still accepted after the refusal
        assert analyzer.analyze().terminates


class TestCaching:
    def test_first_pass_analyzes_everything(self, analyzer):
        report = analyzer.analyze()
        assert len(report.partitions) == 2
        assert report.partitions_reanalyzed == 2
        assert report.partitions_reused == 0

    def test_second_pass_reuses_everything(self, analyzer):
        analyzer.analyze()
        report = analyzer.analyze()
        assert report.partitions_reanalyzed == 0
        assert report.partitions_reused == 2

    def test_editing_one_rule_reanalyzes_only_its_partition(self, analyzer):
        analyzer.analyze()
        analyzer.define_rule(
            "create rule c on x when deleted then update y set id = 2"
        )
        report = analyzer.analyze()
        assert report.partitions_reanalyzed == 1
        assert report.partitions_reused == 1

    def test_certification_invalidates_only_its_partition(self, analyzer):
        analyzer.analyze()
        analyzer.certify_commutes("a", "b")
        report = analyzer.analyze()
        assert report.partitions_reanalyzed == 1
        assert report.partitions_reused == 1

    def test_new_bridging_rule_merges_partitions(self, analyzer):
        analyzer.analyze()
        # bridge touches both u and x: the two partitions become one.
        analyzer.define_rule(
            "create rule bridge on u when inserted then update x set id = 0"
        )
        report = analyzer.analyze()
        assert len(report.partitions) == 1
        assert report.partitions_reanalyzed == 1
        assert report.partitions_reused == 0


class TestCombinedVerdicts:
    def test_matches_monolithic_analysis(self, analyzer):
        report = analyzer.analyze()
        monolithic = RuleAnalyzer(analyzer.build_ruleset()).analyze()
        assert report.terminates == monolithic.terminates
        assert report.confluent == monolithic.confluent
        assert (
            report.observably_deterministic
            == monolithic.observably_deterministic
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_monolithic_on_random_sets(self, seed):
        from repro.workloads.generator import (
            GeneratorConfig,
            LayeredRuleSetGenerator,
        )

        generated = LayeredRuleSetGenerator(
            GeneratorConfig(n_rules=6, n_tables=6, p_observable=0.3),
            seed=seed,
        ).generate()
        incremental = IncrementalAnalyzer(generated.schema)
        for rule in generated:
            incremental.define_rule(rule.source())
        report = incremental.analyze()
        monolithic = RuleAnalyzer(incremental.build_ruleset()).analyze()
        assert report.terminates == monolithic.terminates
        assert report.confluent == monolithic.confluent
        assert (
            report.observably_deterministic
            == monolithic.observably_deterministic
        )

    def test_nontermination_in_one_partition_poisons_all(self, analyzer):
        analyzer.define_rule(
            "create rule loop on y when inserted, updated(id) "
            "then update y set id = id + 1"
        )
        report = analyzer.analyze()
        assert not report.terminates
        assert not report.confluent  # Theorem 6.7 needs termination

    def test_certified_termination_carries(self, analyzer):
        analyzer.define_rule(
            "create rule loop on y when inserted, updated(id) "
            "then update y set id = id + 1"
        )
        analyzer.certify_termination("loop")
        assert analyzer.analyze().terminates

    def test_observables_in_two_partitions_defeat_od(self, analyzer):
        analyzer.define_rule(
            "create rule watch_tu on t when inserted then select * from t"
        )
        analyzer.define_rule(
            "create rule watch_xy on x when inserted then select * from x"
        )
        report = analyzer.analyze()
        assert len(report.observable_partitions) == 2
        assert not report.observably_deterministic

    def test_observables_in_one_partition_can_be_od(self, analyzer):
        analyzer.define_rule(
            "create rule watch_tu on t when inserted then select * from u "
            "follows a"
        )
        report = analyzer.analyze()
        # watch_tu reads u which a/b write; it follows a but is unordered
        # with b — whether OD holds is decided by the partition analysis;
        # assert consistency with the monolithic analyzer instead.
        monolithic = RuleAnalyzer(analyzer.build_ruleset()).analyze()
        assert (
            report.observably_deterministic
            == monolithic.observably_deterministic
        )

    def test_priority_edit_via_incremental(self, analyzer):
        analyzer.define_rule(
            "create rule b2 on u when inserted then update u set id = 3"
        )
        report = analyzer.analyze()
        assert not report.confluent  # b and b2 collide on u.id
        analyzer.add_priority("b", "b2")
        assert analyzer.analyze().confluent
