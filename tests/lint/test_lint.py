"""Lint framework tests: every RPL code fires on the seeded fixture,
the pass implementations honor certifications/entry tables, and the
three output formats round-trip."""

import json
from pathlib import Path

import pytest

from repro.lint import (
    DIAGNOSTIC_CODES,
    LINT_PASSES,
    Severity,
    lint_ruleset,
    rule_source_lines,
)
from repro.errors import RuleError, SchemaError
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    source = (FIXTURES / f"{name}.rules").read_text()
    schema = {}
    for line in (FIXTURES / f"{name}.schema").read_text().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        table, columns = line.split(":", 1)
        schema[table.strip()] = [
            column.strip() for column in columns.split(",")
        ]
    return source, schema_from_spec(schema)


@pytest.fixture(scope="module")
def fixture_report():
    source, schema = load_fixture("all_codes")
    ruleset = RuleSet.parse(source, schema)
    return lint_ruleset(
        ruleset,
        source=source,
        path="all_codes.rules",
        entry_tables={"orders", "stock"},
    )


class TestSeededFixture:
    def test_every_code_fires(self, fixture_report):
        fired = {diagnostic.code for diagnostic in fixture_report.diagnostics}
        assert fired == set(DIAGNOSTIC_CODES)

    def test_registry_and_passes_agree(self):
        assert set(LINT_PASSES) == set(DIAGNOSTIC_CODES)

    def test_errors_present_and_sorted_by_severity(self, fixture_report):
        assert fixture_report.has_errors
        ranks = [
            diagnostic.severity.rank
            for diagnostic in fixture_report.diagnostics
        ]
        assert ranks == sorted(ranks)

    def test_expected_rule_attribution(self, fixture_report):
        by_code = {}
        for diagnostic in fixture_report.diagnostics:
            by_code.setdefault(diagnostic.code, set()).add(diagnostic.rule)
        assert by_code["RPL004"] == {"impossible", "contradictory"}
        assert by_code["RPL006"] == {"unreachable"}
        assert by_code["RPL008"] == {"unreachable"}
        assert by_code["RPL002"] == {"dead_writer"}
        assert by_code["RPL003"] == {
            "self_cleaner",
            "queue_pump",
            "audit_storm",
        }
        assert by_code["RPL007"] == {"queue_trim"}
        assert by_code["RPL009"] == {"self_cleaner"}
        assert by_code["RPL010"] == {"audit_storm"}
        assert by_code["RPL005"] == {"prio_a"}
        assert "unreachable" in by_code["RPL001"]

    def test_rpl007_names_analyzer_and_stratum(self, fixture_report):
        (suggestion,) = [
            diagnostic
            for diagnostic in fixture_report.diagnostics
            if diagnostic.code == "RPL007"
        ]
        assert "delete-only analyzer" in suggestion.message
        assert "stratum" in suggestion.message
        assert "still need manual certification" in suggestion.message

    def test_rpl010_carries_replayable_trace(self, fixture_report):
        (witness,) = [
            diagnostic
            for diagnostic in fixture_report.diagnostics
            if diagnostic.code == "RPL010"
        ]
        assert witness.trace is not None
        assert "audit_storm" in witness.trace

    def test_lines_point_at_create_rule(self, fixture_report):
        source, __ = load_fixture("all_codes")
        lines = rule_source_lines(source)
        for diagnostic in fixture_report.diagnostics:
            assert diagnostic.line == lines[diagnostic.rule]


SCHEMA = schema_from_spec({"t": ["id", "v"], "u": ["id", "w"]})


def lint_source(source, **kwargs):
    return lint_ruleset(RuleSet.parse(source, SCHEMA), **kwargs)


def codes_of(report):
    return {diagnostic.code for diagnostic in report.diagnostics}


class TestPassBehavior:
    def test_clean_program_has_no_findings(self):
        report = lint_source(
            """
            create rule a on t when inserted
            then insert into u (select id, v from inserted)
            """
        )
        assert report.diagnostics == []
        assert not report.has_errors

    def test_rpl001_requires_entry_tables(self):
        source = """
            create rule a on t when inserted
            then insert into u (select id, v from inserted)
            """
        assert "RPL001" not in codes_of(lint_source(source))
        report = lint_source(source, entry_tables={"u"})
        assert codes_of(report) == {"RPL001"}

    def test_unknown_entry_table_or_certified_rule_is_refused(self):
        source = """
            create rule a on t when inserted
            then insert into u (select id, v from inserted)
            """
        with pytest.raises(SchemaError, match="unknown table 'ghost'"):
            lint_source(source, entry_tables={"t", "ghost"})
        with pytest.raises(RuleError, match="unknown rule 'ghost'"):
            lint_source(source, certified_termination=["ghost"])

    def test_rpl001_reachable_through_chain(self):
        report = lint_source(
            """
            create rule a on t when inserted
            then insert into u (select id, v from inserted)
            create rule b on u when inserted
            then delete from u where w < 0
            """,
            entry_tables={"t"},
        )
        assert "RPL001" not in codes_of(report)

    def test_rpl002_read_or_trigger_keeps_write_alive(self):
        dead = lint_source(
            """
            create rule a on t when inserted
            then update u set w = 1 where id = 1
            """
        )
        assert "RPL002" in codes_of(dead)
        read = lint_source(
            """
            create rule a on t when inserted
            then update u set w = 1 where id = 1
            create rule b on t when inserted
            if exists (select * from u where w > 0)
            then delete from t where v = 0
            """
        )
        assert "RPL002" not in codes_of(read)
        triggered = lint_source(
            """
            create rule a on t when inserted
            then update u set w = 1 where id = 1
            create rule b on u when updated(w)
            then delete from t where v = 0
            """
        )
        assert "RPL002" not in codes_of(triggered)

    def test_rpl003_silenced_by_certification(self):
        source = """
            create rule a on t when deleted
            then delete from t where v = 0
            """
        # The layered analysis auto-certifies the delete-only self-loop
        # (RPL009) instead of suggesting a certification (RPL007).
        assert {"RPL003", "RPL009"} <= codes_of(lint_source(source))
        assert "RPL007" not in codes_of(lint_source(source))
        certified = lint_source(source, certified_termination=["a"])
        assert {"RPL003", "RPL007", "RPL009"}.isdisjoint(
            codes_of(certified)
        )

    def test_rpl004_three_valued_folding(self):
        report = lint_source(
            """
            create rule a on t when inserted
            if 1 = null
            then delete from t where v = 0
            """
        )
        diagnostics = [
            d for d in report.diagnostics if d.code == "RPL004"
        ]
        assert len(diagnostics) == 1
        assert "UNKNOWN" in diagnostics[0].message

    def test_rpl004_not_fooled_by_satisfiable_bounds(self):
        report = lint_source(
            """
            create rule a on t when inserted
            if exists (select * from t where v > 3 and v < 5)
            then delete from t where v = 4
            """
        )
        assert "RPL004" not in codes_of(report)

    def test_rpl005_only_flags_redundant_edges(self):
        shadowed = lint_source(
            """
            create rule a on t when inserted
            then delete from t where v = 1 precedes b, c
            create rule b on t when inserted
            then delete from t where v = 2 precedes c
            create rule c on t when inserted
            then delete from t where v = 3
            """
        )
        assert "RPL005" in codes_of(shadowed)
        chain = lint_source(
            """
            create rule a on t when inserted
            then delete from t where v = 1 precedes b
            create rule b on t when inserted
            then delete from t where v = 2 precedes c
            create rule c on t when inserted
            then delete from t where v = 3
            """
        )
        assert "RPL005" not in codes_of(chain)

    def test_rpl006_qualified_and_unqualified(self):
        report = lint_source(
            """
            create rule a on t when inserted
            if exists (select * from u where u.nope > 0)
            then delete from t where v = 0
            """
        )
        assert "RPL006" in codes_of(report)

    def test_rpl008_transition_alias_not_ambiguous(self):
        report = lint_source(
            """
            create rule a on t when inserted
            if exists (select * from inserted where v > 0)
            then delete from t where v = 0
            """
        )
        assert "RPL008" not in codes_of(report)

    def test_only_filter_restricts_passes(self):
        source, schema = load_fixture("all_codes")
        ruleset = RuleSet.parse(source, schema)
        report = lint_ruleset(
            ruleset, entry_tables={"orders", "stock"}, only=["RPL004"]
        )
        assert codes_of(report) == {"RPL004"}


class TestOutputFormats:
    def test_json_round_trip(self, fixture_report):
        payload = json.loads(json.dumps(fixture_report.to_json_dict()))
        assert payload["path"] == "all_codes.rules"
        assert payload["summary"]["error"] == 4
        assert len(payload["diagnostics"]) == len(fixture_report.diagnostics)
        assert all(
            d["code"] in DIAGNOSTIC_CODES for d in payload["diagnostics"]
        )

    def test_sarif_structure(self, fixture_report):
        log = json.loads(json.dumps(fixture_report.to_sarif()))
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [rule["id"] for rule in driver["rules"]] == sorted(
            DIAGNOSTIC_CODES
        )
        assert {result["ruleId"] for result in run["results"]} == set(
            DIAGNOSTIC_CODES
        )
        for result in run["results"]:
            rules = driver["rules"]
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            (location,) = result["locations"]
            physical = location["physicalLocation"]
            assert physical["artifactLocation"]["uri"] == "all_codes.rules"
            assert physical["region"]["startLine"] >= 1
            (logical,) = location["logicalLocations"]
            assert logical["kind"] == "rule"

    def test_sarif_code_flow_for_witness(self, fixture_report):
        log = fixture_report.to_sarif()
        flows = [
            result
            for result in log["runs"][0]["results"]
            if "codeFlows" in result
        ]
        assert flows and all(r["ruleId"] == "RPL010" for r in flows)
        locations = flows[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        assert locations
        for step, entry in enumerate(locations, start=1):
            location = entry["location"]
            (logical,) = location["logicalLocations"]
            assert logical["kind"] == "rule"
            assert location["message"]["text"].startswith(f"step {step}:")

    def test_text_summary_line(self, fixture_report):
        text = fixture_report.render_text()
        assert text.splitlines()[-1].endswith(
            "4 error(s), 11 warning(s), 2 note(s)"
        )

    def test_severity_levels_match_registry(self, fixture_report):
        for diagnostic in fixture_report.diagnostics:
            assert (
                diagnostic.severity
                is DIAGNOSTIC_CODES[diagnostic.code].severity
            )
            assert diagnostic.severity in (
                Severity.ERROR,
                Severity.WARNING,
                Severity.NOTE,
            )
