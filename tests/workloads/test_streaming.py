"""Streaming-ingestion workload tests (the server benchmark's driver)."""

import pytest

from repro.config import ServerOptions
from repro.engine.database import Database
from repro.errors import ConfigError
from repro.runtime.server import RuleServer, serial_replay
from repro.workloads.streaming import (
    STREAMS,
    drive_streaming,
    streaming_workload,
)


class TestWorkloadConstruction:
    def test_seeded_runs_are_identical(self):
        first = streaming_workload(rows=2_000, batch_rows=100, seed=7)
        second = streaming_workload(rows=2_000, batch_rows=100, seed=7)
        assert len(first.batches) == len(second.batches) == 20
        for a, b in zip(first.batches, second.batches):
            assert a.stream == b.stream
            assert [repr(s) for s in a.statements] == [
                repr(s) for s in b.statements
            ]

    def test_seed_changes_the_event_values(self):
        first = streaming_workload(rows=800, batch_rows=100, seed=1)
        second = streaming_workload(rows=800, batch_rows=100, seed=2)
        assert [repr(s) for b in first.batches for s in b.statements] != [
            repr(s) for b in second.batches for s in b.statements
        ]

    def test_batches_cover_all_streams_round_robin(self):
        workload = streaming_workload(rows=1_600, batch_rows=100)
        assert [b.stream for b in workload.batches[: len(STREAMS)]] == list(
            STREAMS
        )
        assert workload.total_rows == 1_600

    def test_rules_cover_every_stream_and_region(self):
        workload = streaming_workload(rows=800, batch_rows=100, regions=3)
        names = {rule.name for rule in workload.ruleset}
        for stream in STREAMS:
            for region in range(3):
                assert f"{stream}_alert_r{region}" in names
                assert f"{stream}_escalate_r{region}" in names

    def test_hot_batches_rotate_and_sum(self):
        workload = streaming_workload(
            rows=4_000, batch_rows=100, hot_every=13
        )
        hot = [
            b for b in workload.batches if len(b.statements) == 2
        ]
        assert len(hot) == len(
            [i for i in range(40) if i % 13 == 0]
        )
        # Coprime hot_every: the hot batches land on distinct streams.
        assert len({b.stream for b in hot}) > 1

    def test_hot_every_zero_disables_the_hot_row(self):
        workload = streaming_workload(rows=800, batch_rows=100, hot_every=0)
        assert all(len(b.statements) == 1 for b in workload.batches)


class TestPartialBatch:
    """Rows past the last full batch go into a last, partial batch."""

    def test_remainder_is_a_last_partial_batch(self):
        workload = streaming_workload(rows=150, batch_rows=100)
        assert [batch.rows for batch in workload.batches] == [100, 50]
        assert workload.total_rows == 150
        events = workload.batches[-1].statements[0]
        assert len(events.rows) == 50

    def test_full_batches_are_unchanged_by_a_remainder(self):
        whole = streaming_workload(rows=300, batch_rows=100, seed=3)
        longer = streaming_workload(rows=350, batch_rows=100, seed=3)
        assert [repr(s) for b in longer.batches[:3] for s in b.statements] == [
            repr(s) for b in whole.batches for s in b.statements
        ]

    def test_a_hot_partial_batch_bumps_by_its_own_rows(self):
        workload = streaming_workload(rows=50, batch_rows=100)
        (batch,) = workload.batches
        assert batch.rows == 50
        assert len(batch.statements) == 2  # batch 0 is a hot batch
        server = RuleServer(
            workload.ruleset, workload.database, options=ServerOptions()
        )
        report = drive_streaming(server, workload.batches, workers=2)
        assert report.committed == 1
        assert workload.database.table("totals").value_tuples() == [(0, 50)]


class TestCountsBelowOne:
    """Counts below 1 are refused in the CLI's wording, not turned into
    a ZeroDivisionError, an IndexError or an empty workload."""

    @pytest.mark.parametrize("name", ["rows", "batch_rows"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_workload_counts(self, name, value):
        with pytest.raises(ConfigError) as caught:
            streaming_workload(**{name: value})
        assert str(caught.value) == (
            f"{name} must be a positive int; got {value}"
        )

    @pytest.mark.parametrize("value", [0, -1])
    def test_drive_streaming_workers(self, value):
        with pytest.raises(ConfigError) as caught:
            drive_streaming(None, [], workers=value)
        assert str(caught.value) == (
            f"workers must be a positive int; got {value}"
        )


class TestDrive:
    def drive(self, rows=2_000, workers=4, hot_every=3):
        workload = streaming_workload(
            rows=rows, batch_rows=100, hot_every=hot_every
        )
        server = RuleServer(
            workload.ruleset,
            workload.database,
            options=ServerOptions(),
            record_history=True,
        )
        report = drive_streaming(server, workload.batches, workers=workers)
        return workload, server, report

    def test_all_batches_commit(self):
        workload, server, report = self.drive()
        assert report.committed == len(workload.batches)
        assert report.rows_ingested == workload.total_rows
        assert server.commit_count == len(workload.batches)
        events = sum(
            len(workload.database.table(f"{stream}_events"))
            for stream in workload.streams
        )
        assert events == workload.total_rows

    def test_hot_row_arithmetic(self):
        workload, _, _ = self.drive(hot_every=3)
        hot_batches = len(
            [i for i in range(len(workload.batches)) if i % 3 == 0]
        )
        assert workload.database.table("totals").value_tuples() == [
            (0, hot_batches * 100)
        ]

    def test_alert_escalation_invariant(self):
        # alerts/escalations are per-region alert-count functions
        # (T mod 5 / T div 5): both live in [0, inf) with alerts < 5
        # after quiescence, and at this scale some alerts must fire.
        workload, _, _ = self.drive(rows=4_000)
        total_alert_events = 0
        for stream in workload.streams:
            for region, alerts, escalations in workload.database.table(
                f"{stream}_state"
            ).value_tuples():
                assert 0 <= alerts < 5
                assert escalations >= 0
                total_alert_events += alerts + 5 * escalations
        assert total_alert_events > 0

    def test_concurrent_run_matches_serial_replay(self):
        workload, server, _ = self.drive()
        fresh = streaming_workload(rows=2_000, batch_rows=100, hot_every=3)
        replayed = serial_replay(
            fresh.ruleset, fresh.database, server.history
        )
        assert replayed.canonical() == workload.database.canonical()

    def test_final_state_is_commit_order_independent(self):
        concurrent, _, _ = self.drive(workers=4)
        serial, _, _ = self.drive(workers=1)
        assert concurrent.database.canonical() == serial.database.canonical()

    def test_report_shape(self):
        _, _, report = self.drive()
        payload = report.to_dict()
        assert payload["committed"] == 20
        assert payload["rows_ingested"] == 2_000
        assert 0.0 <= payload["abort_rate"] < 1.0
        assert payload["p99_commit_seconds"] >= payload["p50_commit_seconds"]
        assert report.commits_per_second > 0
