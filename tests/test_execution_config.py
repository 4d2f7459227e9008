"""The ExecutionConfig session API.

One frozen value object carries every execution option; it is the only
way to configure a session. These tests pin the config's fields,
defaults and validation, that the pre-config keyword arguments are
gone, and the CLI's ``--matching`` surface.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro import DEFAULT_CONFIG, ExecutionConfig
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.query import DatabaseProvider, execute_select
from repro.lang.parser import parse_expression, parse_statement
from repro.rules.ruleset import RuleSet
from repro.runtime.processor import RuleProcessor
from repro.runtime.server import RuleServer
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec({"t": ["id", "v"]})


@pytest.fixture
def ruleset(schema):
    return RuleSet.parse(
        """
        create rule r on t when inserted
        if exists (select * from t where v > 5)
        then delete from t where v > 5
        """,
        schema,
    )


class TestConfigValue:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.matching == "planned"
        assert config.planner is True
        assert config.wal is None
        assert config == DEFAULT_CONFIG

    def test_rejects_unknown_matching_mode(self):
        with pytest.raises(ValueError, match="matching must be one of"):
            ExecutionConfig(matching="treat")

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionConfig().matching = "naive"

    def test_with_options(self):
        config = ExecutionConfig().with_options(matching="rete")
        assert config.matching == "rete"
        assert config.planner is True

    def test_wants_wal(self):
        assert not ExecutionConfig().wants_wal
        assert ExecutionConfig(wal="x.wal").wants_wal


class TestResolveConfig:
    """Every entry point falls back to DEFAULT_CONFIG and uses an
    explicit config exactly as given."""

    def test_no_arguments_yields_default(self, ruleset, schema):
        assert RuleProcessor(ruleset, Database(schema)).config is DEFAULT_CONFIG
        with RuleServer(ruleset, Database(schema)) as server:
            assert server.config is DEFAULT_CONFIG

    def test_explicit_config_passes_through(self, ruleset, schema):
        naive = ExecutionConfig(matching="naive", planner=False)
        database = Database(schema)
        database.load("t", [(1, 9), (2, 1)])
        processor = RuleProcessor(ruleset, database, config=naive)
        assert processor.config is naive
        # the session reads its options from the config alone
        assert not hasattr(processor, "planner")
        assert not hasattr(processor, "incremental")
        provider = DatabaseProvider(database)
        select = parse_statement("select * from t where v > 5")
        assert execute_select(provider, select, config=naive).rows == (
            (1, 9),
        )
        expr = parse_expression("exists (select * from t where v > 5)")
        evaluator = Evaluator(provider, config=naive)
        assert evaluator.evaluate(expr, RowContext()) is True
        execute_statement(
            database, parse_statement("delete from t where v > 5"), config=naive
        )
        assert database.table("t").value_tuples() == [(2, 1)]


class TestConfigIsTheOnlySpelling:
    """The scattered keywords ExecutionConfig replaced are not accepted."""

    def test_fields(self):
        assert [field.name for field in fields(ExecutionConfig)] == [
            "matching",
            "planner",
            "wal",
        ]

    def test_entry_points_reject_the_old_keywords(self, ruleset, schema):
        database = Database(schema)
        provider = DatabaseProvider(database)
        select = parse_statement("select * from t")
        calls = [
            lambda: RuleProcessor(ruleset, database, incremental=False),
            lambda: RuleProcessor(ruleset, database, wal_path="x.wal"),
            lambda: Evaluator(provider, planner=False),
            lambda: execute_select(provider, select, planner=False),
            lambda: execute_statement(database, select, planner=False),
            lambda: ExecutionConfig(durable=True),
            lambda: ExecutionConfig(**{"incremental": False}),
            lambda: ExecutionConfig(**{"scheduler": "parallel"}),
            lambda: ExecutionConfig(**{"partitions": 4}),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()


class TestCliMatching:
    @pytest.fixture
    def files(self, tmp_path):
        def write(name: str, content: str) -> str:
            path = tmp_path / name
            path.write_text(content)
            return str(path)

        return write

    def run_cli(self, files, matching: str, capsys) -> dict:
        from repro.cli import main

        code = main(
            [
                files(
                    "r.txt",
                    "create rule r on t when inserted\n"
                    "if exists (select * from t where v > 5)\n"
                    "then delete from t where v > 5\n",
                ),
                "--schema",
                files("s.txt", "t: id, v"),
                "--run",
                "insert into t values (1, 9)",
                "--run",
                "insert into t values (2, 1)",
                "--matching",
                matching,
                "--json",
            ]
        )
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_all_modes_agree_and_report_stats(self, files, capsys):
        payloads = {
            matching: self.run_cli(files, matching, capsys)
            for matching in ("naive", "planned", "rete")
        }
        finals = {
            matching: payload["execution"]["final_tables"]
            for matching, payload in payloads.items()
        }
        assert finals["naive"] == finals["planned"] == finals["rete"]
        assert finals["rete"] == {"t": [[2, 1]]}
        execution = payloads["rete"]["execution"]
        # The stats are process-global accumulators (like the planner's),
        # so assert growth, not absolute values.
        assert execution["rete_stats"]["rules_supported"] >= 1
        assert execution["rete_stats"]["terminal_hits"] >= 1
        assert "planner_stats" in execution
        # The analysis report's own stats section is untouched.
        assert "confluence_passes" in payloads["rete"]["stats"]
