"""Concurrent rule-server tests: MVCC validation, publication, oracle."""

import threading

import pytest

from repro.config import ExecutionConfig, ServerOptions
from repro.engine.database import Database
from repro.errors import ConflictError, RuleProcessingError
from repro.rules.ruleset import RuleSet
from repro.runtime.server import RuleServer, serial_replay
from repro.schema.catalog import schema_from_spec


@pytest.fixture
def schema():
    return schema_from_spec({"t": ["id", "v", "w"], "log_t": ["id", "v"]})


def server_for(
    schema,
    rules="",
    rows=(),
    options=None,
    config=None,
    record_history=False,
):
    ruleset = RuleSet.parse(rules, schema)
    database = Database(schema)
    if rows:
        database.load("t", list(rows))
    return RuleServer(
        ruleset,
        database,
        options=options,
        config=config,
        record_history=record_history,
    )


class TestCommit:
    def test_commit_publishes_net_effect(self, schema):
        server = server_for(schema)
        session = server.session()
        session.execute("insert into t values (1, 5, 0)")
        session.run()
        receipt = session.commit()
        assert receipt.commit_seq == 1
        assert receipt.published == 1
        assert not receipt.durable
        assert server.database.table("t").value_tuples() == [(1, 5, 0)]

    def test_cascade_effects_publish_with_the_transaction(self, schema):
        server = server_for(
            schema,
            "create rule r on t when inserted "
            "then insert into log_t values (0, 0)",
        )
        session = server.session()
        session.execute("insert into t values (1, 5, 0)")
        session.run()
        session.commit()
        assert server.database.table("log_t").value_tuples() == [(0, 0)]

    def test_fork_isolation_until_commit(self, schema):
        server = server_for(schema)
        session = server.session()
        session.execute("insert into t values (1, 5, 0)")
        assert len(server.database.table("t")) == 0
        assert len(session.database.table("t")) == 1

    def test_insert_tids_reallocated_across_siblings(self, schema):
        server = server_for(schema)
        first, second = server.session(), server.session()
        first.execute("insert into t values (1, 1, 0)")
        second.execute("insert into t values (2, 2, 0)")
        first.run()
        second.run()
        first.commit()
        second.commit()
        assert sorted(server.database.table("t").value_tuples()) == [
            (1, 1, 0),
            (2, 2, 0),
        ]

    def test_empty_transaction_commits(self, schema):
        server = server_for(schema)
        session = server.session()
        session.run()
        receipt = session.commit()
        assert receipt.published == 0
        assert server.commit_count == 1

    def test_session_is_closed_after_commit(self, schema):
        server = server_for(schema)
        session = server.session()
        session.commit()
        with pytest.raises(RuleProcessingError):
            session.execute("insert into t values (1, 1, 0)")

    def test_abort_discards_everything(self, schema):
        server = server_for(schema)
        session = server.session()
        session.execute("insert into t values (1, 5, 0)")
        session.abort()
        assert len(server.database.table("t")) == 0
        with pytest.raises(RuleProcessingError):
            session.commit()

    def test_mismatched_schema_rejected(self, schema):
        other = schema_from_spec({"t": ["id", "v", "w"]})
        with pytest.raises(RuleProcessingError):
            RuleServer(RuleSet.parse("", schema), Database(other))


class TestFirstCommitterWins:
    def test_write_write_same_column_conflicts(self, schema):
        server = server_for(schema, rows=[(1, 5, 0)])
        first, second = server.session(), server.session()
        first.execute("update t set v = 6 where id = 1")
        second.execute("update t set v = 7 where id = 1")
        first.run()
        second.run()
        first.commit()
        with pytest.raises(ConflictError) as exc:
            second.commit()
        assert "t.v" in exc.value.items
        assert server.stats.conflicts == 1

    def test_disjoint_columns_merge(self, schema):
        options = ServerOptions(isolation="snapshot")
        server = server_for(schema, rows=[(1, 5, 0)], options=options)
        first, second = server.session(), server.session()
        first.execute("update t set v = 6 where id = 1")
        second.execute("update t set w = 9 where id = 1")
        first.run()
        second.run()
        first.commit()
        second.commit()
        assert server.database.table("t").value_tuples() == [(1, 6, 9)]

    def test_delete_conflicts_with_concurrent_update(self, schema):
        options = ServerOptions(isolation="snapshot")
        server = server_for(schema, rows=[(1, 5, 0)], options=options)
        first, second = server.session(), server.session()
        first.execute("update t set v = 6 where id = 1")
        second.execute("delete from t where id = 1")
        first.run()
        second.run()
        first.commit()
        with pytest.raises(ConflictError):
            second.commit()

    def test_serializable_read_validates(self, schema):
        server = server_for(schema, rows=[(1, 5, 0)])
        reader, writer = server.session(), server.session()
        # reader's WHERE reads t.v; writer commits a t.v update first
        reader.execute(
            "insert into log_t (select id, v from t where v = 5)"
        )
        writer.execute("update t set v = 6 where id = 1")
        reader.run()
        writer.run()
        writer.commit()
        with pytest.raises(ConflictError):
            reader.commit()

    def test_snapshot_isolation_skips_read_validation(self, schema):
        options = ServerOptions(isolation="snapshot")
        server = server_for(schema, rows=[(1, 5, 0)], options=options)
        reader, writer = server.session(), server.session()
        reader.execute(
            "insert into log_t (select id, v from t where v = 5)"
        )
        writer.execute("update t set v = 6 where id = 1")
        reader.run()
        writer.run()
        writer.commit()
        reader.commit()  # read skew admitted by design
        assert server.database.table("log_t").value_tuples() == [(1, 5)]

    def test_phantom_protection_for_update_targets(self, schema):
        # An UPDATE's WHERE scan is a membership read of the target
        # table: a concurrently inserted matching row must conflict.
        server = server_for(schema, rows=[(1, 5, 0)])
        updater, inserter = server.session(), server.session()
        updater.execute("update t set w = 1 where v = 5")
        inserter.execute("insert into t values (2, 5, 0)")
        updater.run()
        inserter.run()
        inserter.commit()
        with pytest.raises(ConflictError):
            updater.commit()

    def test_insert_only_sessions_never_conflict(self, schema):
        server = server_for(schema)
        sessions = [server.session() for _ in range(4)]
        for index, session in enumerate(sessions):
            session.execute(f"insert into t values ({index}, 0, 0)")
            session.run()
        for session in sessions:
            session.commit()
        assert len(server.database.table("t")) == 4

    def test_unrelated_tables_do_not_conflict(self, schema):
        server = server_for(schema, rows=[(1, 5, 0)])
        first, second = server.session(), server.session()
        first.execute("update t set v = 6 where id = 1")
        second.execute("insert into log_t values (9, 9)")
        first.run()
        second.run()
        first.commit()
        second.commit()

    def test_table_granularity_is_coarser(self, schema):
        options = ServerOptions(isolation="snapshot", granularity="table")
        server = server_for(schema, rows=[(1, 5, 0)], options=options)
        first, second = server.session(), server.session()
        first.execute("update t set v = 6 where id = 1")
        second.execute("update t set w = 9 where id = 1")
        first.run()
        second.run()
        first.commit()
        with pytest.raises(ConflictError) as exc:
            second.commit()
        assert exc.value.items == ("t",)

    def test_conflict_is_retriable(self, schema):
        server = server_for(schema, rows=[(1, 5, 0)])
        first, second = server.session(), server.session()
        first.execute("update t set v = 6 where id = 1")
        second.execute("update t set v = 7 where id = 1")
        first.run()
        second.run()
        first.commit()
        with pytest.raises(ConflictError):
            second.commit()
        retry = server.session()
        retry.execute("update t set v = 7 where id = 1")
        retry.run()
        retry.commit()
        assert server.database.table("t").value_tuples() == [(1, 7, 0)]


class TestRollback:
    def test_rolled_back_session_cannot_commit(self, schema):
        server = server_for(
            schema,
            "create rule r on t when inserted then rollback 'no'",
        )
        session = server.session()
        session.execute("insert into t values (1, 5, 0)")
        result = session.run()
        assert result.outcome == "rolled_back"
        with pytest.raises(RuleProcessingError):
            session.commit()
        assert server.stats.rollbacks == 1
        assert len(server.database.table("t")) == 0

    def test_run_transaction_reports_rollback_without_retry(self, schema):
        server = server_for(
            schema,
            "create rule r on t when inserted then rollback 'no'",
        )
        outcome = server.run_transaction(
            ["insert into t values (1, 5, 0)"]
        )
        assert outcome.rolled_back and not outcome.committed
        assert outcome.retries == 0


class TestRunTransaction:
    def test_commits_and_returns_receipt(self, schema):
        server = server_for(schema)
        outcome = server.run_transaction(
            ["insert into t values (1, 5, 0)"]
        )
        assert outcome.committed
        assert outcome.receipt.commit_seq == 1
        assert outcome.result.outcome == "quiescent"

    def test_concurrent_increments_serialize_correctly(self, schema):
        server = server_for(schema, rows=[(1, 0, 0)])
        rounds = 10

        def work():
            for _ in range(rounds):
                outcome = server.run_transaction(
                    ["update t set v = v + 1 where id = 1"]
                )
                assert outcome.committed

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert server.database.table("t").value_tuples() == [
            (1, 4 * rounds, 0)
        ]
        assert server.stats.commits == 4 * rounds

    def test_retry_wins_after_induced_conflict(self, schema):
        server = server_for(schema, rows=[(1, 0, 0)])

        class Sabotage:
            """Statement source that commits a competing t.v write the
            first *limit* times it is iterated — i.e. between the
            transaction's fork and its commit — forcing a
            first-committer-wins loss on exactly those attempts."""

            def __init__(self, limit):
                self.remaining = limit

            def __iter__(self):
                if self.remaining:
                    self.remaining -= 1
                    rival = server.session()
                    rival.execute("update t set v = v + 1 where id = 1")
                    rival.run()
                    rival.commit()
                yield "update t set v = v + 10 where id = 1"

        outcome = server.run_transaction(Sabotage(2))
        assert outcome.committed
        assert outcome.retries == 2
        assert server.stats.retries == 2
        assert server.database.table("t").value_tuples() == [(1, 12, 0)]

    def test_exhausted_retry_budget_raises(self, schema):
        server = server_for(schema, rows=[(1, 0, 0)])

        def sabotage():
            rival = server.session()
            rival.execute("update t set v = v + 1 where id = 1")
            rival.run()
            rival.commit()
            yield "update t set v = v + 10 where id = 1"

        with pytest.raises(ConflictError):
            server.run_transaction(sabotage(), max_retries=0)


class TestDeterminismOracle:
    def test_serial_replay_matches_concurrent_history(self, schema):
        rules = (
            "create rule r on t when inserted "
            "then insert into log_t (select id, v from inserted)"
        )
        server = server_for(schema, rules, record_history=True)

        def work(base):
            for i in range(5):
                server.run_transaction(
                    [f"insert into t values ({base + i}, {base + i}, 0)"]
                )

        threads = [
            threading.Thread(target=work, args=(100 * n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        replayed = serial_replay(
            RuleSet.parse(rules, schema), Database(schema), server.history
        )
        assert replayed.canonical() == server.database.canonical()

    def test_history_is_in_commit_order(self, schema):
        server = server_for(schema, record_history=True)
        for i in range(3):
            server.run_transaction([f"insert into t values ({i}, 0, 0)"])
        assert [seq for seq, _ in server.history] == [1, 2, 3]


class TestDurable:
    def test_group_commit_recovery_equals_live_state(self, schema, tmp_path):
        path = str(tmp_path / "server.wal")
        server = server_for(
            schema,
            "create rule r on t when inserted "
            "then insert into log_t values (0, 0)",
            config=ExecutionConfig(wal=path),
            options=ServerOptions(max_delay=0.05, max_batch=4),
        )

        def work(base):
            for i in range(3):
                outcome = server.run_transaction(
                    [f"insert into t values ({base + i}, 1, 0)"]
                )
                assert outcome.committed and outcome.receipt.durable

        threads = [
            threading.Thread(target=work, args=(10 * n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.close()

        recovered = Database.recover(path, schema=schema)
        assert recovered.canonical() == server.database.canonical()
        assert len(recovered.table("t")) == 12

    def test_per_commit_baseline_syncs_each_commit(self, schema, tmp_path):
        path = str(tmp_path / "baseline.wal")
        server = server_for(
            schema,
            config=ExecutionConfig(wal=path),
            options=ServerOptions(group_commit=False),
        )
        for i in range(5):
            server.run_transaction([f"insert into t values ({i}, 0, 0)"])
        assert server.wal.stats.batches == 5
        assert server.wal.stats.batch_sizes == {1: 5}
        server.close()


class TestStats:
    def test_stats_sections_shape(self, schema, tmp_path):
        server = server_for(
            schema,
            config=ExecutionConfig(wal=str(tmp_path / "s.wal")),
        )
        server.run_transaction(["insert into t values (1, 1, 0)"])
        server.close()
        sections = server.stats_sections()
        assert sections["server"]["commits"] == 1
        assert "batch_sizes" in sections["group_commit"]
        assert sections["wal"]["syncs"] >= 1

    def test_in_memory_sections_omit_wal(self, schema):
        server = server_for(schema)
        assert set(server.stats_sections()) == {"server"}
