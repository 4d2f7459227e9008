"""Concurrent crash matrix: group-commit WALs with interleaved sessions.

A group-commit WAL interleaves frames of *different* transactions —
bodies (``B``/``P``) land as commits are submitted, the deferred ``C``
markers land per batch — so its crash points exercise recovery paths a
single-agent log never produces: several transactions pending at once,
a commit marker for a transaction whose body precedes another pending
body, and crashes that cut off more than one in-flight transaction.

Two layers:

* **hand-built logs** — :class:`~repro.engine.wal.WalWriter` frames
  written directly in adversarial interleavings, with the expected
  state at every boundary derived by hand;
* **the real server** — a multi-threaded
  :class:`~repro.runtime.server.RuleServer` run with
  ``record_commit_canonicals=True`` and a slow simulated fsync (so
  batches really coalesce), then a truncate-at-every-boundary sweep
  keyed on the ``C`` frames' ``epoch`` payloads: the committed prefix
  of the log must recover to exactly the canonical snapshot the server
  recorded at that commit.

A strided subset runs in tier 1; the exhaustive sweep is marked
``slow``/``simulation`` for the CI simulation job.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import ExecutionConfig, ServerOptions
from repro.engine.database import Database
from repro.engine.wal import WalWriter, recover_database, scan_frames
from repro.rules.ruleset import RuleSet
from repro.runtime.server import RuleServer
from repro.schema.catalog import schema_from_spec
from repro.transitions.delta import Primitive
from repro.validate.faults import DeviceLatency
from repro.workloads.iot import iot_workload

from tests.validate.test_recovery import truncate_to


def simple_schema():
    return schema_from_spec({"t": ["id", "v"], "u": ["id", "v"]})


def insert(seq, table, tid, values):
    return Primitive.checked(seq, "I", table, tid, None, tuple(values))


def update(seq, table, tid, old, new):
    return Primitive.checked(seq, "U", table, tid, tuple(old), tuple(new))


# ----------------------------------------------------------------------
# Hand-built interleaved logs
# ----------------------------------------------------------------------


class TestInterleavedFrames:
    def write_interleaved(self, path):
        """B1 P1 B2 P2 C1 C2 — txn 2 updates the row txn 1 inserted, so
        recovery must apply pending bodies at their commit markers, in
        file order, not at body order or in txn-id order."""
        writer = WalWriter(path, schema=simple_schema())
        writer.begin(1)
        writer.primitive(1, insert(1, "t", 7, (1, 5)))
        writer.begin(2)
        writer.primitive(2, update(2, "t", 7, (1, 5), (1, 6)))
        writer.commit_marker(1, epoch=1)
        writer.commit_marker(2, epoch=2)
        writer.sync_now()
        writer.close()

    def test_full_log_applies_both_in_commit_order(self, tmp_path):
        path = str(tmp_path / "interleaved.wal")
        self.write_interleaved(path)
        result = recover_database(path)
        assert result.database.table("t").value_tuples() == [(1, 6)]
        assert result.report.transactions_committed == 2
        assert result.report.transactions_discarded == 0

    def test_every_boundary_of_the_interleaving(self, tmp_path):
        path = str(tmp_path / "interleaved.wal")
        self.write_interleaved(path)
        scan = scan_frames(path)
        kinds = [frame.kind for frame in scan.frames]
        assert kinds == ["H", "B", "P", "B", "P", "C", "C"]

        # Expected t-contents and discarded count at each boundary.
        expectations = [
            ([], 0),       # H: empty store, nothing pending
            ([], 1),       # B1: txn 1 in flight
            ([], 1),       # P1
            ([], 2),       # B2: both in flight
            ([], 2),       # P2
            ([(1, 5)], 1), # C1: txn 1 real, txn 2 still pending
            ([(1, 6)], 0), # C2: both applied
        ]
        crashed = str(tmp_path / "crashed.wal")
        for frame, (rows, discarded) in zip(scan.frames, expectations):
            truncate_to(path, crashed, frame.end)
            result = recover_database(crashed)
            assert result.database.table("t").value_tuples() == rows, (
                f"boundary after frame {frame.index} ({frame.kind})"
            )
            assert result.report.transactions_discarded == discarded

    def test_abort_interleaved_with_a_commit(self, tmp_path):
        """B1 P1 B2 P2 C2 A1 — the abort arrives after another session's
        commit; txn 1 must vanish without disturbing txn 2."""
        path = str(tmp_path / "abort.wal")
        writer = WalWriter(path, schema=simple_schema())
        writer.begin(1)
        writer.primitive(1, insert(1, "t", 7, (1, 5)))
        writer.begin(2)
        writer.primitive(2, insert(2, "u", 9, (2, 8)))
        writer.commit_marker(2, epoch=1)
        writer.sync_now()
        writer.abort(1)
        writer.close()

        result = recover_database(path)
        assert result.database.table("t").value_tuples() == []
        assert result.database.table("u").value_tuples() == [(2, 8)]
        assert result.report.transactions_committed == 1
        assert result.report.transactions_aborted == 1
        assert result.report.transactions_discarded == 0

    def test_crash_discards_every_pending_transaction(self, tmp_path):
        """A torn group: three bodies down, no markers — one crash loses
        all three in-flight transactions, and says so."""
        path = str(tmp_path / "pending.wal")
        writer = WalWriter(path, schema=simple_schema())
        for txn in (1, 2, 3):
            writer.begin(txn)
            writer.primitive(txn, insert(txn, "t", txn, (txn, 0)))
        writer.flush()
        writer.close()

        result = recover_database(path)
        assert result.database.table("t").value_tuples() == []
        assert result.report.transactions_committed == 0
        assert result.report.transactions_discarded == 3
        assert result.report.open_transaction_discarded


# ----------------------------------------------------------------------
# The real concurrent server, crashed at every boundary
# ----------------------------------------------------------------------


def run_concurrent_server(
    path: str,
    *,
    workers: int = 4,
    transactions_each: int = 5,
    fsync_seconds: float = 0.005,
):
    """A short multi-threaded server run on a slow simulated device.

    Returns ``(schema, initial_canonical, commit_canonicals, scan)``.
    The slow fsync makes group batches genuinely coalesce, which is what
    puts interleaved bodies and deferred markers in the log.
    """
    schema = schema_from_spec(
        {"t": ["id", "v"], "log_t": ["id", "v"], "totals": ["id", "n"]}
    )
    rules = (
        "create rule audit on t when inserted "
        "then insert into log_t (select id, v from inserted)"
    )
    ruleset = RuleSet.parse(rules, schema)
    database = Database(schema)
    database.load("totals", [(0, 0)])
    initial_canonical = database.canonical()

    server = RuleServer(
        ruleset,
        database,
        config=ExecutionConfig(wal=path),
        options=ServerOptions(max_delay=0.05, max_batch=workers),
        fault_plan=DeviceLatency(fsync_seconds=fsync_seconds),
        record_commit_canonicals=True,
    )

    def work(worker: int) -> None:
        for k in range(transactions_each):
            row_id = worker * 1000 + k
            statements = [f"insert into t values ({row_id}, {worker})"]
            if k % 2 == 0:  # shared hot row: forces retries under load
                statements.append(
                    "update totals set n = n + 1 where id = 0"
                )
            outcome = server.run_transaction(statements)
            assert outcome.committed

    threads = [
        threading.Thread(target=work, args=(w,)) for w in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.close()

    assert server.commit_count == workers * transactions_each
    canonicals = dict(server.commit_canonicals)
    canonicals[0] = initial_canonical
    return schema, server, canonicals, scan_frames(path)


def sweep_boundaries(tmp_path, path, schema, canonicals, scan, stride=1):
    """Crash at every *stride*-th frame boundary; assert the recovered
    state is the canonical snapshot of the last commit in the prefix."""
    crashed = str(tmp_path / "crashed.wal")
    points = 0
    expected_seq = 0  # commit epochs are dense and ascending in the file
    expected = Database(schema).canonical()  # before the checkpoint frame
    for frame in scan.frames:
        if frame.kind == "K":
            expected = canonicals[0]  # the checkpointed base state
        elif frame.kind == "C":
            assert frame.payload["e"] == expected_seq + 1, (
                "C frames must appear in commit-seq order"
            )
            expected_seq += 1
            expected = canonicals[expected_seq]
        if frame.index % stride and frame.index != len(scan.frames) - 1:
            continue
        truncate_to(path, crashed, frame.end)
        result = recover_database(crashed, schema=schema)
        assert result.database.canonical() == expected, (
            f"boundary after frame {frame.index} ({frame.kind}), "
            f"expected state as of commit {expected_seq}"
        )
        assert result.report.transactions_committed == expected_seq
        points += 1
    return points


class TestConcurrentServerCrashMatrix:
    def test_strided_boundary_subset(self, tmp_path):
        path = str(tmp_path / "server.wal")
        schema, server, canonicals, scan = run_concurrent_server(
            path, workers=4, transactions_each=4
        )
        points = sweep_boundaries(
            tmp_path, path, schema, canonicals, scan, stride=5
        )
        assert points >= 10

    def test_batches_really_coalesce(self, tmp_path):
        """The matrix is only adversarial if the log actually interleaves
        transactions: at least one group batch must hold >= 2 commits,
        which forces bodies of distinct sessions between two syncs."""
        for attempt in range(3):  # timing-dependent precondition: retry
            path = str(tmp_path / f"coalesce{attempt}.wal")
            _, server, _, scan = run_concurrent_server(
                path, workers=4, transactions_each=5
            )
            if any(size >= 2 for size in server.wal.stats.batch_sizes):
                break
        else:
            pytest.fail("no multi-commit batch in three attempts")
        # A batch of n >= 2 writes n bodies before the n deferred
        # markers, so some B/P of one txn sits between another txn's
        # body and marker — the interleaving the hand-built tests model.
        kinds = [frame.kind for frame in scan.frames]
        deferred = False
        open_txns: set[int] = set()
        for frame in scan.frames:
            if frame.kind == "B":
                open_txns.add(frame.payload["x"])
            elif frame.kind == "C":
                open_txns.discard(frame.payload["x"])
                if open_txns:
                    deferred = True
        assert deferred, f"no interleaved commit in {kinds}"

    @pytest.mark.slow
    @pytest.mark.simulation
    def test_every_boundary_full_sweep(self, tmp_path):
        path = str(tmp_path / "server.wal")
        schema, server, canonicals, scan = run_concurrent_server(
            path, workers=6, transactions_each=6
        )
        points = sweep_boundaries(
            tmp_path, path, schema, canonicals, scan, stride=1
        )
        assert points >= 100, f"only {points} crash points exercised"


# ----------------------------------------------------------------------
# Crash matrix against the declarative oracle
# ----------------------------------------------------------------------


def run_stratified_server(path: str, transactions: list[list[str]]):
    """A serial durable server over the stratified iot workload.

    Submitting from one thread makes commit order equal program order,
    so "state after commit *k*" is well-defined independently of the
    server — which lets the declarative oracle, not the server's own
    snapshots, supply the expected state at every crash point.
    """
    workload = iot_workload(rows=200, regions=2, devices_per_region=4)
    server = RuleServer(
        workload.ruleset,
        workload.database.copy(),
        config=ExecutionConfig(wal=path),
        record_commit_canonicals=True,
    )
    for statements in transactions:
        outcome = server.run_transaction(statements)
        assert outcome.committed
    server.close()
    return workload, server, scan_frames(path)


def declarative_canonicals(workload, transactions) -> dict:
    """``{k: canonical after the first k transactions}`` computed by the
    declarative engine alone — per-stratum fixpoints, no scheduler."""
    from repro.semantics import DeclarativeEngine

    engine = DeclarativeEngine(workload.ruleset, workload.database.copy())
    canonicals = {0: workload.database.canonical()}
    for index, statements in enumerate(transactions, start=1):
        outcome = engine.transaction(statements)
        assert outcome.quiescent
        canonicals[index] = outcome.final
    return canonicals


def iot_oracle_transactions(count: int) -> list[list[str]]:
    """Seeded reading batches; every third crosses the alert threshold
    so the cascade (alert -> degrade -> dispatch) really fires."""
    transactions = []
    for k in range(count):
        device = k % 8
        region = device % 2
        value = 990 + k if k % 3 == 0 else 100 + k
        transactions.append(
            [
                f"insert into readings values "
                f"({900_000 + 2 * k}, {device}, {region}, {value})",
                f"insert into readings values "
                f"({900_001 + 2 * k}, {(device + 3) % 8}, "
                f"{((device + 3) % 8) % 2}, {50 + k})",
            ]
        )
    return transactions


class TestDeclarativeOracleRecovery:
    """Recovered truncated-WAL states must satisfy the declarative
    oracle for stratified workloads: at every crash point the recovered
    database equals the per-stratum fixpoint state of the committed
    transaction prefix — no appeal to the server's recorded snapshots."""

    def test_commit_snapshots_match_the_oracle(self, tmp_path):
        path = str(tmp_path / "oracle.wal")
        transactions = iot_oracle_transactions(6)
        workload, server, _ = run_stratified_server(path, transactions)
        oracle = declarative_canonicals(workload, transactions)
        assert server.commit_count == len(transactions)
        for epoch, canonical in server.commit_canonicals.items():
            assert canonical == oracle[epoch], (
                f"server snapshot at commit {epoch} diverges from the "
                "declarative oracle"
            )

    def test_strided_truncation_recovers_oracle_states(self, tmp_path):
        path = str(tmp_path / "oracle.wal")
        transactions = iot_oracle_transactions(6)
        workload, _, scan = run_stratified_server(path, transactions)
        oracle = declarative_canonicals(workload, transactions)
        points = sweep_boundaries(
            tmp_path,
            path,
            workload.schema,
            oracle,
            scan,
            stride=7,
        )
        assert points >= 5

    @pytest.mark.slow
    @pytest.mark.simulation
    def test_every_truncation_recovers_oracle_states(self, tmp_path):
        path = str(tmp_path / "oracle.wal")
        transactions = iot_oracle_transactions(12)
        workload, _, scan = run_stratified_server(path, transactions)
        oracle = declarative_canonicals(workload, transactions)
        points = sweep_boundaries(
            tmp_path, path, workload.schema, oracle, scan, stride=1
        )
        assert points >= 30, f"only {points} crash points exercised"
