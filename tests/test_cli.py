"""CLI tests for starburst-analyze."""

import pytest

from repro.cli import load_schema, main, repro_main

SCHEMA = """
# employee schema
t: id, v
u: id, w
"""

CLEAN_RULES = """
create rule a on t when inserted then update u set w = 0
"""

CONFLICTING_RULES = """
create rule a on t when inserted then update u set w = 0
create rule b on t when inserted then update u set w = 1
"""

LOOPING_RULES = """
create rule loop on t when inserted, updated(v)
then update t set v = 0 where v < 0
"""


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestLoadSchema:
    def test_parses_tables_and_comments(self, files):
        schema = load_schema(files("schema.txt", SCHEMA))
        assert schema.table_names == ("t", "u")
        assert schema.table("t").column_names == ("id", "v")


class TestExitCodes:
    def test_clean_rule_set_exits_zero(self, files, capsys):
        code = main(
            [files("r.txt", CLEAN_RULES), "--schema", files("s.txt", SCHEMA)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "termination guaranteed" in out

    def test_conflicting_rules_exit_one(self, files, capsys):
        code = main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 1
        assert "may not be confluent" in capsys.readouterr().out

    def test_parse_error_exits_two(self, files, capsys):
        code = main(
            [files("r.txt", "create rule broken"), "--schema", files("s.txt", SCHEMA)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_superscript_digit_exits_two_without_traceback(self, files, capsys):
        rules = (
            "create rule a on t when inserted\n"
            "if exists (select * from inserted where v > ²)\n"
            "then update u set w = 0\n"
        )
        code = main([files("r.txt", rules), "--schema", files("s.txt", SCHEMA)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unexpected character '²' (line 2, column 45)" in err
        assert "Traceback" not in err

    def test_zero_partitions_exits_two_without_traceback(self, files, capsys):
        # There is no ``--partitions`` option: argparse refuses it as a
        # usage error (exit 2), like any unknown option.
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    files("r.txt", CLEAN_RULES),
                    "--schema",
                    files("s.txt", SCHEMA),
                    "--run",
                    "insert into t values (1, 1)",
                    "--partitions",
                    "0",
                ]
            )
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --partitions 0" in err
        assert "Traceback" not in err


class TestOptions:
    def test_verbose_shows_violations_and_suggestions(self, files, capsys):
        main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert "confluence violations" in out
        assert "suggestions" in out

    def test_verbose_shows_cycles(self, files, capsys):
        main(
            [
                files("r.txt", LOOPING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--verbose",
            ]
        )
        assert "cycles" in capsys.readouterr().out

    def test_certify_commutes_option(self, files, capsys):
        code = main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--certify-commutes",
                "a,b",
            ]
        )
        assert code == 0

    def test_order_option(self, files):
        code = main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--order",
                "a,b",
            ]
        )
        assert code == 0

    def test_certify_termination_option(self, files):
        code = main(
            [
                files("r.txt", LOOPING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--certify-termination",
                "loop",
            ]
        )
        assert code == 0

    def test_partial_confluence_option(self, files, capsys):
        code = main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--tables",
                "t",
            ]
        )
        out = capsys.readouterr().out
        assert "partial confluence" in out
        assert "confluent with respect to {t}" in out
        assert code == 1  # overall confluence still fails


class TestJsonAndStats:
    def test_json_emits_valid_report(self, files, capsys):
        import json

        code = main(
            [
                files("r.txt", CLEAN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--json",
            ]
        )
        out = capsys.readouterr().out
        data = json.loads(out)  # pure JSON on stdout
        assert code == 0
        assert data["verdicts"] == {
            "terminates": True,
            "confluent": True,
            "observably_deterministic": True,
        }
        assert data["stats"]["confluence_passes"] >= 1

    def test_json_round_trips_through_report(self, files, capsys):
        import json

        from repro.analysis.analyzer import AnalysisReport

        main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--json",
                "--tables",
                "u",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        restored = AnalysisReport.from_dict(data)
        assert restored.to_dict() == data
        assert not restored.confluent
        assert data["partial_confluence"][0]["tables"] == ["u"]

    def test_json_exit_code_still_reflects_verdicts(self, files, capsys):
        code = main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--json",
            ]
        )
        assert code == 1

    def test_stats_prints_engine_counters(self, files, capsys):
        code = main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "analysis engine stats" in out
        assert "pairs_judged" in out
        assert "pair_memo_hits" in out
        assert "timings" in out


DATA = """
# stock levels
u: (1, 3), (2, 0)
"""

RUNNABLE_RULES = """
create rule bump on t when inserted
then update u set w = w + 1 where id in (select id from inserted)
"""

OBSERVABLE_RULES = """
create rule watch on t when inserted then select * from u
"""


class TestRunMode:
    def test_load_data(self, files):
        from repro.cli import load_data, load_schema

        schema = load_schema(files("s.txt", SCHEMA))
        database = load_data(files("d.txt", DATA), schema)
        assert database.table("u").value_tuples() == [(1, 3), (2, 0)]

    def test_load_data_keeps_a_hash_inside_quotes(self, files):
        from repro.cli import load_data, load_schema

        schema = load_schema(files("s.txt", "t: id, v:string\n"))
        data = "t: (1, 'a#b')  # note\nt: (2, 'it''s #2')\n"
        database = load_data(files("d.txt", data), schema)
        assert database.table("t").value_tuples() == [
            (1, "a#b"),
            (2, "it's #2"),
        ]

    def test_run_prints_trace_and_final_state(self, files, capsys):
        code = main(
            [
                files("r.txt", RUNNABLE_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--data",
                files("d.txt", DATA),
                "--run",
                "insert into t values (1, 9)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rule processing trace" in out
        assert "consider bump" in out
        assert "outcome: quiescent" in out
        assert "(1, 4)" in out  # u row 1 bumped from 3 to 4

    def test_explore_reports_instance_behavior(self, files, capsys):
        main(
            [
                files("r.txt", OBSERVABLE_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--run",
                "insert into t values (1, 1)",
                "--explore",
            ]
        )
        out = capsys.readouterr().out
        assert "execution-graph exploration" in out
        assert "terminates:          True" in out
        assert "obs. deterministic:  True" in out
        assert "observable streams:  1" in out

    def test_explore_text_says_undecided(self, capsys):
        # --run stops at its step limit on a looping program before
        # --explore runs, so render a cyclic graph's stats directly.
        from repro.cli import _print_run
        from repro.engine.database import Database
        from repro.rules.ruleset import RuleSet
        from repro.runtime.exec_graph import explore_ruleset
        from repro.schema.catalog import schema_from_spec

        schema = schema_from_spec({"t": ["id", "v"]})
        graph = explore_ruleset(
            RuleSet.parse(
                "create rule flip on t when updated(v), inserted "
                "then update t set v = 1 - v",
                schema,
            ),
            Database(schema),
            ["insert into t values (0, 0)"],
        )
        execution = {"outcome": "quiescent", "steps": 0, "final_tables": {}}
        _print_run({"execution": execution, "exploration": graph.stats()}, [])
        out = capsys.readouterr().out
        assert "terminates:          False" in out
        assert "confluent:           undecided" in out
        assert "obs. deterministic:  undecided" in out

    def test_bad_run_statement_exits_two(self, files, capsys):
        code = main(
            [
                files("r.txt", RUNNABLE_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--run",
                "insert into ghost values (1)",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDotFlag:
    def test_dot_written(self, files, tmp_path, capsys):
        out_file = tmp_path / "graph.dot"
        main(
            [
                files("r.txt", LOOPING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--dot",
                str(out_file),
            ]
        )
        assert "triggering graph written" in capsys.readouterr().out
        content = out_file.read_text()
        assert content.startswith("digraph triggering_graph {")
        assert "lightcoral" in content  # the loop is highlighted


ROLLBACK_RULES = """
create rule guard on t when inserted
if exists (select * from inserted where v < 0)
then rollback 'negative v'
"""


class TestDurableRun:
    def run_durable(self, files, tmp_path, statement, rules=RUNNABLE_RULES):
        wal = str(tmp_path / "run.wal")
        code = main(
            [
                files("r.txt", rules),
                "--schema",
                files("s.txt", SCHEMA),
                "--data",
                files("d.txt", DATA),
                "--run",
                statement,
                "--durable",
                wal,
            ]
        )
        return code, wal

    def test_durable_run_prints_wal_summary(self, files, tmp_path, capsys):
        code, wal = self.run_durable(
            files, tmp_path, "insert into t values (1, 9)"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== durability ==" in out
        assert f"WAL {wal}: committed" in out

    def test_recover_replays_durable_run(self, files, tmp_path, capsys):
        __, wal = self.run_durable(
            files, tmp_path, "insert into t values (1, 9)"
        )
        capsys.readouterr()
        code = repro_main(["recover", wal])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 committed" in out
        # The rule's effect survived: u row 1 bumped from 3 to 4.
        assert "(1, 4)" in out

    def test_recover_json_reports_and_tables(self, files, tmp_path, capsys):
        import json

        __, wal = self.run_durable(
            files, tmp_path, "insert into t values (1, 9)"
        )
        capsys.readouterr()
        code = repro_main(["recover", wal, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["report"]["transactions_committed"] == 1
        assert [1, 9] in payload["tables"]["t"]
        assert [1, 4] in payload["tables"]["u"]

    def test_recover_with_matching_schema_file(self, files, tmp_path, capsys):
        __, wal = self.run_durable(
            files, tmp_path, "insert into t values (1, 9)"
        )
        capsys.readouterr()
        code = repro_main(
            ["recover", wal, "--schema", files("s.txt", SCHEMA)]
        )
        assert code == 0

    def test_rolled_back_run_recovers_to_base_state(
        self, files, tmp_path, capsys
    ):
        __, wal = self.run_durable(
            files,
            tmp_path,
            "insert into t values (1, -5)",
            rules=ROLLBACK_RULES,
        )
        out = capsys.readouterr().out
        assert f"WAL {wal}: aborted" in out
        code = repro_main(["recover", wal, "--json"])
        import json

        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        # Only the --data base state survives; the insert was undone.
        assert payload["tables"]["t"] == []
        assert payload["tables"]["u"] == [[1, 3], [2, 0]]
        assert payload["report"]["transactions_aborted"] == 1

    def test_recover_garbage_file_exits_two(self, tmp_path, capsys):
        bogus = tmp_path / "not.wal"
        bogus.write_bytes(b"definitely not a wal")
        code = repro_main(["recover", str(bogus)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_recover_missing_file_exits_two(self, tmp_path, capsys):
        code = repro_main(["recover", str(tmp_path / "absent.wal")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


ZOO_SCHEMA = """
sd: k
sd2: k
wd: k
"""

STRATIFIED_RULES = """
create rule feed on sd when inserted
then insert into sd2 values (1)

create rule guard on sd2 when inserted
if exists (select * from inserted where k > 5)
then insert into sd values (9)
"""

GROWING_RULES = """
create rule storm on wd when inserted
then insert into wd values (1)
"""


class TestTerminationModes:
    def test_tg_mode_flags_refutable_cycle(self, files, capsys):
        code = main(
            [
                files("r.txt", STRATIFIED_RULES),
                "--schema",
                files("s.txt", ZOO_SCHEMA),
                "--termination",
                "tg",
            ]
        )
        assert code == 1
        assert "may not terminate" in capsys.readouterr().out

    def test_stratified_mode_certifies_refutable_cycle(self, files, capsys):
        code = main(
            [
                files("r.txt", STRATIFIED_RULES),
                "--schema",
                files("s.txt", ZOO_SCHEMA),
                "--termination",
                "stratified",
                "--order",
                "feed,guard",
            ]
        )
        assert code == 0
        assert (
            "termination guaranteed [stratified]"
            in capsys.readouterr().out
        )

    def test_verbose_prints_per_cycle_verdicts(self, files, capsys):
        main(
            [
                files("r.txt", STRATIFIED_RULES),
                "--schema",
                files("s.txt", ZOO_SCHEMA),
                "--termination",
                "stratified",
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert "per-cycle termination verdicts [stratified]" in out
        assert "auto-certified(stratified)" in out

    def test_json_carries_layered_report(self, files, capsys):
        import json

        main(
            [
                files("r.txt", STRATIFIED_RULES),
                "--schema",
                files("s.txt", ZOO_SCHEMA),
                "--termination",
                "critical",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        layered = payload["termination_report"]
        assert layered["mode"] == "critical"
        assert layered["verdicts"][0]["verdict"] == "auto-certified"

    def test_critical_mode_leaves_an_unevaluable_cycle_unknown(
        self, files, capsys
    ):
        # The witness search cannot evaluate the condition (no table has
        # a column z): it finds no witness and the cycle stays unknown.
        code = main(
            [
                files(
                    "r.txt",
                    "create rule a on t when inserted, updated "
                    "if z > 0 then update t set v = v + 1",
                ),
                "--schema",
                files("s.txt", SCHEMA),
                "--termination",
                "critical",
                "--verbose",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "may not terminate [critical]" in captured.out
        assert "{a}: unknown" in captured.out
        assert "unknown column" not in captured.err

    def test_dot_clusters_strata(self, files, capsys, tmp_path):
        dot_path = tmp_path / "tg.dot"
        main(
            [
                files("r.txt", STRATIFIED_RULES),
                "--schema",
                files("s.txt", ZOO_SCHEMA),
                "--termination",
                "stratified",
                "--dot",
                str(dot_path),
            ]
        )
        assert "cluster_stratum_" in dot_path.read_text()


class TestReplayWitnessCLI:
    def _witness_file(self, files, capsys, tmp_path):
        out = str(tmp_path / "witness.json")
        main(
            [
                files("r.txt", GROWING_RULES),
                "--schema",
                files("s.txt", ZOO_SCHEMA),
                "--termination",
                "critical",
                "--witness-out",
                out,
            ]
        )
        capsys.readouterr()
        return out

    def test_witness_out_then_replay_exits_zero(
        self, files, capsys, tmp_path
    ):
        path = self._witness_file(files, capsys, tmp_path)
        code = repro_main(["replay-witness", path])
        assert code == 0
        assert "LOOPS" in capsys.readouterr().out

    def test_replay_json_output(self, files, capsys, tmp_path):
        import json

        path = self._witness_file(files, capsys, tmp_path)
        code = repro_main(["replay-witness", path, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_valid"]
        assert payload["results"][0]["kind"] == "pumped-growth"

    def test_tampered_witness_exits_one(self, files, capsys, tmp_path):
        import json

        path = self._witness_file(files, capsys, tmp_path)
        with open(path) as handle:
            witnesses = json.load(handle)
        witnesses[0]["cycle"] = ["ghost"]
        with open(path, "w") as handle:
            json.dump(witnesses, handle)
        code = repro_main(["replay-witness", path])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, capsys, tmp_path):
        code = repro_main(["replay-witness", str(tmp_path / "missing.json")])
        assert code == 2


class TestServeMode:
    def test_streaming_default_serves_and_verifies(self, capsys):
        code = repro_main(
            ["serve", "--rows", "800", "--sessions", "4", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "served 8 committed transactions over 4 session threads" in out
        assert "replay: equal" in out

    def test_rows_below_one_batch_serve_a_partial_batch(self, capsys):
        code = repro_main(
            ["serve", "--rows", "50", "--sessions", "2", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "served 1 committed transactions over 2 session threads" in out
        assert "replay: equal" in out

    def test_rules_mode_runs_transactions(self, files, capsys):
        code = repro_main(
            [
                "serve",
                files("r.txt", RUNNABLE_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--data",
                files("d.txt", DATA),
                "--transaction",
                "insert into t values (1, 9)",
                "--transaction",
                "insert into t values (2, 9)",
                "--sessions",
                "2",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "served 2 committed transactions" in out
        assert "replay: equal" in out

    def test_json_stats_profile_payload(self, tmp_path, capsys):
        import json

        wal = str(tmp_path / "serve.wal")
        code = repro_main(
            [
                "serve",
                "--rows",
                "400",
                "--sessions",
                "2",
                "--durable",
                wal,
                "--verify",
                "--json",
                "--stats",
                "--profile",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serve"]["committed"] == 4
        assert payload["server"]["commits"] == 4
        assert payload["verify"] == {
            "replay_equal": True,
            "recovery_equal": True,
        }
        assert "commit_validate" in payload["profile"]
        assert "commit_wait" in payload["profile"]
        assert "batch_sizes" in payload["group_commit"]
        assert payload["wal"]["syncs"] >= 1

    def test_durable_wal_recovers_via_recover_command(self, tmp_path, capsys):
        wal = str(tmp_path / "serve.wal")
        code = repro_main(
            ["serve", "--rows", "400", "--sessions", "2", "--durable", wal]
        )
        assert code == 0
        assert "committed sessions are durable" in capsys.readouterr().out
        code = repro_main(["recover", wal, "--json"])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["transactions_committed"] == 4

    def test_stats_text_includes_server_counters(self, capsys):
        code = repro_main(
            ["serve", "--rows", "400", "--sessions", "2", "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "server" in out
        assert "commits" in out

    def test_rules_without_schema_exits_two(self, files, capsys):
        code = repro_main(["serve", files("r.txt", RUNNABLE_RULES)])
        assert code == 2
        assert "requires --schema" in capsys.readouterr().err

    def test_rules_without_transactions_exits_two(self, files, capsys):
        code = repro_main(
            [
                "serve",
                files("r.txt", RUNNABLE_RULES),
                "--schema",
                files("s.txt", SCHEMA),
            ]
        )
        assert code == 2
        assert "--transaction" in capsys.readouterr().err

    def test_zero_max_batch_exits_two_without_traceback(self, capsys):
        code = repro_main(["serve", "--max-batch", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: max_batch must be a positive int; got 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--sessions", "--rows", "--batch-rows"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_exits_two_without_traceback(
        self, flag, value, capsys
    ):
        code = repro_main(["serve", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        name = flag.removeprefix("--").replace("-", "_")
        assert f"error: {name} must be a positive int; got {value}" in err
        assert "Traceback" not in err


class TestCrosscheckMode:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rows_below_one_exits_two_without_traceback(self, value, capsys):
        code = repro_main(["crosscheck", "partitioned", "--rows", value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: rows must be a positive int; got {value}" in err
        assert "Traceback" not in err


class TestUnwritableOutputs:
    """A path that cannot be written is an ``error:`` and exit 2."""

    @pytest.mark.parametrize(
        "option, name",
        [
            ("--dot", "x.dot"),
            ("--report", "x.md"),
            ("--witness-out", "x.json"),
            ("--durable", "x.wal"),
        ],
    )
    @pytest.mark.parametrize(
        "json_flag", [[], ["--json"]], ids=["text", "json"]
    )
    def test_exits_two_without_traceback(
        self, option, name, json_flag, files, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing" / name)
        code = main(
            [
                files("r.txt", RUNNABLE_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--run",
                "insert into t values (1, 1)",
                option,
                missing,
                *json_flag,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: [Errno 2] No such file or directory: {missing!r}" in err
        assert "Traceback" not in err

    def test_lint_output(self, files, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "x.txt")
        code = repro_main(
            [
                "lint",
                files("r.txt", CLEAN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                "--output",
                missing,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: [Errno 2] No such file or directory: {missing!r}" in err
        assert "Traceback" not in err


class TestUnknownNames:
    """Rule and table names on the command line are checked like --order's."""

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--order", "x,b", "unknown rule 'x'"),
            ("--certify-commutes", "x,y", "unknown rule 'x'"),
            ("--certify-commutes", "a,y", "unknown rule 'y'"),
            ("--certify-commutes", "a", "--certify-commutes takes two rule"),
            ("--order", "a", "--order takes two rule names 'a,b', got 'a'"),
            ("--certify-termination", "x", "unknown rule 'x'"),
            ("--tables", "nosuch", "unknown table 'nosuch'"),
            ("--tables", "t,nosuch", "unknown table 'nosuch'"),
        ],
    )
    def test_analyze_exits_two(self, option, value, message, files, capsys):
        code = main(
            [
                files("r.txt", CONFLICTING_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                option,
                value,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert "confluent with respect to" not in captured.out

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--entry", "nosuch", "unknown table 'nosuch'"),
            ("--certify-termination", "x", "unknown rule 'x'"),
        ],
    )
    def test_lint_exits_two(self, option, value, message, files, capsys):
        code = repro_main(
            [
                "lint",
                files("r.txt", CLEAN_RULES),
                "--schema",
                files("s.txt", SCHEMA),
                option,
                value,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
