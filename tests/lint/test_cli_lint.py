"""CLI tests for the ``repro`` entry point (``lint`` and ``analyze``)."""

import json

import pytest

from repro.cli import repro_main

SCHEMA = """
t: id, v
u: id, w
"""

CLEAN_RULES = """
create rule a on t when inserted
then insert into u (select id, v from inserted)
"""

BROKEN_RULES = """
create rule a on t when inserted
if 1 = 2
then delete from t where v = 0
"""

SELF_TRIGGER_RULES = """
create rule a on t when deleted
then delete from t where v = 0
"""

# A self-triggering rule whose condition names a column no table has:
# the critical-mode witness search cannot evaluate it.
UNKNOWN_COLUMN_RULES = """
create rule a on t when inserted, updated
if z > 0
then update t set v = v + 1
"""


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestLintExitCodes:
    def test_clean_exits_zero(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", CLEAN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_error_finding_exits_one(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", BROKEN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RPL004" in out
        assert "1 error(s)" in out

    def test_warning_only_exits_zero(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", SELF_TRIGGER_RULES),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RPL003" in out
        # The layered analysis discharges the delete-only self-loop,
        # so the linter reports an auto-certification instead of an
        # RPL007 suggestion.
        assert "RPL009" in out
        assert "RPL007" not in out

    def test_missing_rules_file_exits_two(self, files, capsys):
        code = repro_main(
            [
                "lint",
                "/nonexistent/path.rules",
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_two(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", "create rule broken on"),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestLintOptions:
    def test_json_format(self, files, capsys):
        repro_main(
            [
                "lint",
                files("r.txt", BROKEN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 1
        assert payload["diagnostics"][0]["code"] == "RPL004"

    def test_sarif_output_file(self, files, tmp_path, capsys):
        out_path = tmp_path / "report.sarif"
        repro_main(
            [
                "lint",
                files("r.txt", BROKEN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--format",
                "sarif",
                "--output",
                str(out_path),
            ]
        )
        log = json.loads(out_path.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "RPL004"
        # stdout stays clean; the notice goes to stderr.
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "report.sarif" in captured.err

    def test_select_restricts_codes(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", SELF_TRIGGER_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--select",
                "rpl009",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RPL009" in out
        assert "RPL003" not in out

    def test_certify_termination(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", SELF_TRIGGER_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--certify-termination",
                "a",
            ]
        )
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_entry_tables_enable_rpl001(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", CLEAN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--entry",
                "u",
            ]
        )
        assert code == 0
        assert "RPL001" in capsys.readouterr().out

    def test_unevaluable_rule_reports_rpl006(self, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", UNKNOWN_COLUMN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert (
            "error RPL006 [a]: unqualified column 'z' matches no table "
            "in scope" in captured.out
        )
        assert "error:" not in captured.err


class TestAnalyzeDelegation:
    def test_analyze_delegates_to_main(self, files, capsys):
        code = repro_main(
            [
                "analyze",
                files("r.txt", CLEAN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 0
        assert "termination guaranteed" in capsys.readouterr().out

    def test_analyze_dataflow_flag(self, files, capsys):
        code = repro_main(
            [
                "analyze",
                files("r.txt", CLEAN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--dataflow",
            ]
        )
        assert code == 0
