"""Unit tests for the write-ahead log: frame codec, writer, recovery.

The crash-matrix simulation suite lives in
``tests/validate/test_recovery.py``; these tests pin the building
blocks — frame encoding, torn-tail scanning, fsync batching, the
retry/backoff path — with hand-built inputs.
"""

import gc
import os
import struct
import zlib

import pytest

from repro.engine import wal
from repro.engine.database import Database
from repro.engine.wal import (
    MAGIC,
    WalError,
    WalWriteError,
    WalWriter,
    encode_frame,
    payload_primitive,
    primitive_payload,
    recover_database,
    scan_frames,
)
from repro.schema.catalog import schema_from_spec
from repro.transitions.delta import Primitive
from repro.validate.faults import FaultPlan, SimulatedCrash

_HEADER = struct.Struct("<II")


@pytest.fixture
def schema():
    return schema_from_spec({"t": ["id", "v"], "u": ["id", "w:string"]})


def wal_path(tmp_path):
    return str(tmp_path / "run.wal")


def write_raw(path, *chunks):
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------


class TestFrameCodec:
    def test_roundtrip_through_scan(self, tmp_path):
        path = wal_path(tmp_path)
        payloads = [{"t": "B", "x": 1}, {"t": "C", "x": 1}]
        write_raw(path, MAGIC, *[encode_frame(p) for p in payloads])
        scan = scan_frames(path)
        assert [f.payload for f in scan.frames] == payloads
        assert not scan.torn_tail
        assert scan.valid_bytes == os.path.getsize(path)

    def test_frame_positions_and_boundaries(self, tmp_path):
        path = wal_path(tmp_path)
        frames = [encode_frame({"t": "B", "x": i}) for i in (1, 2, 3)]
        write_raw(path, MAGIC, *frames)
        scan = scan_frames(path)
        assert [f.index for f in scan.frames] == [0, 1, 2]
        assert scan.frames[0].offset == len(MAGIC)
        # Boundaries are cumulative end offsets — the crash-point grid.
        expected, offset = [], len(MAGIC)
        for frame in frames:
            offset += len(frame)
            expected.append(offset)
        assert scan.boundaries() == expected

    def test_primitive_payload_roundtrip(self):
        cases = [
            Primitive.checked(0, "I", "t", 7, None, (1, "x")),
            Primitive.checked(0, "D", "t", 7, (1, "x"), None),
            Primitive.checked(0, "U", "t", 7, (1, "x"), (1, "y")),
        ]
        for primitive in cases:
            payload = primitive_payload(3, primitive)
            assert payload["t"] == "P" and payload["x"] == 3
            back = payload_primitive(payload)
            assert (back.kind, back.table, back.tid) == (
                primitive.kind,
                primitive.table,
                primitive.tid,
            )
            assert back.old == primitive.old
            assert back.new == primitive.new

    def test_payload_primitive_validates(self):
        bad = primitive_payload(1, Primitive(0, "I", "t", 1, None, (1,)))
        bad["o"] = [9]  # an insert must not carry old values
        with pytest.raises(ValueError):
            payload_primitive(bad)


# ----------------------------------------------------------------------
# Torn / corrupt tails
# ----------------------------------------------------------------------


class TestScanTails:
    def test_bad_magic_raises(self, tmp_path):
        path = wal_path(tmp_path)
        write_raw(path, b"NOTAWAL!", encode_frame({"t": "B", "x": 1}))
        with pytest.raises(WalError):
            scan_frames(path)

    def test_magic_only_file_is_empty_scan(self, tmp_path):
        path = wal_path(tmp_path)
        write_raw(path, MAGIC)
        scan = scan_frames(path)
        assert scan.frames == [] and not scan.torn_tail

    def test_torn_header_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        good = encode_frame({"t": "B", "x": 1})
        write_raw(path, MAGIC, good, b"\x05\x00")
        scan = scan_frames(path)
        assert len(scan.frames) == 1
        assert scan.torn_tail and scan.tail_reason == "torn frame header"
        assert scan.valid_bytes == len(MAGIC) + len(good)

    def test_torn_payload_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        good = encode_frame({"t": "B", "x": 1})
        torn = encode_frame({"t": "C", "x": 1})[:-3]
        write_raw(path, MAGIC, good, torn)
        scan = scan_frames(path)
        assert len(scan.frames) == 1
        assert scan.tail_reason == "torn frame payload"

    def test_crc_mismatch_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        good = encode_frame({"t": "B", "x": 1})
        corrupt = bytearray(encode_frame({"t": "C", "x": 1}))
        corrupt[-1] ^= 0xFF
        write_raw(path, MAGIC, good, bytes(corrupt))
        scan = scan_frames(path)
        assert len(scan.frames) == 1
        assert scan.tail_reason == "CRC mismatch"

    def test_undecodable_payload_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        body = b"\xff\xfenot json"
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        write_raw(path, MAGIC, encode_frame({"t": "B", "x": 1}), frame)
        scan = scan_frames(path)
        assert len(scan.frames) == 1
        assert scan.tail_reason == "undecodable payload"

    def test_valid_frames_after_corruption_are_ignored(self, tmp_path):
        # The contract is prefix-only: a good frame past a bad one is
        # unreachable (its predecessor never fully hit disk).
        path = wal_path(tmp_path)
        good = encode_frame({"t": "B", "x": 1})
        corrupt = bytearray(encode_frame({"t": "P", "x": 1}))
        corrupt[-1] ^= 0xFF
        write_raw(path, MAGIC, good, bytes(corrupt), encode_frame({"t": "C", "x": 1}))
        scan = scan_frames(path)
        assert len(scan.frames) == 1


class TestCollectorPause:
    """Scan and replay run with the cyclic collector off, and every exit
    (whole log, torn tail, bad magic) leaves it as it found it."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_scan_restores_collector_state(self, tmp_path, collecting):
        frame = encode_frame({"t": "B", "x": 1})
        clean, torn, bad = (str(tmp_path / name) for name in ("c", "t", "b"))
        write_raw(clean, MAGIC, frame)
        write_raw(torn, MAGIC, frame, b"\x05\x00")
        write_raw(bad, b"NOTAWAL!", frame)
        assert not scan_frames(clean).torn_tail
        assert gc.isenabled() is collecting
        assert scan_frames(torn).torn_tail
        assert gc.isenabled() is collecting
        with pytest.raises(WalError):
            scan_frames(bad)
        assert gc.isenabled() is collecting

    def test_recovery_decodes_and_replays_with_collector_off(
        self, schema, tmp_path, collecting, monkeypatch
    ):
        states = []

        def recording(function):
            def wrapper(*args):
                states.append(gc.isenabled())
                return function(*args)

            return wrapper

        for name in ("_decode_payload", "_apply_checkpoint", "_replay_transaction"):
            monkeypatch.setattr(wal, name, recording(getattr(wal, name)))
        database = Database(schema)
        database.load("t", [(1, 10)])
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.checkpoint(database)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 2, None, (2, 20)))
        writer.commit(1)
        writer.close()
        recovered = recover_database(path).database
        assert sorted(recovered.table("t").items()) == [(1, (1, 10)), (2, (2, 20))]
        assert states and not any(states)
        assert gc.isenabled() is collecting
        write_raw(path, b"NOTAWAL!")
        with pytest.raises(WalError):
            recover_database(path)
        assert gc.isenabled() is collecting


# ----------------------------------------------------------------------
# Writer: batching, sync policies, stats
# ----------------------------------------------------------------------


class TestWriter:
    def test_header_flushed_at_open(self, schema, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        # Before any commit the header frame is already on disk.
        scan = scan_frames(path)
        assert [f.kind for f in scan.frames] == ["H"]
        assert scan.frames[0].payload["schema"] == schema.to_spec()
        writer.close()

    def test_commit_makes_frames_visible(self, schema, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 1, None, (1, 2)))
        frames = writer.commit(1)
        assert frames == 4  # H B P C
        scan = scan_frames(path)
        assert [f.kind for f in scan.frames] == ["H", "B", "P", "C"]
        writer.close()

    def test_batching_defers_flushes(self, schema, tmp_path):
        writer = WalWriter(wal_path(tmp_path), schema=schema, batch_frames=64)
        flushes_after_open = writer.stats.flushes
        writer.begin(1)
        for i in range(10):
            writer.primitive(1, Primitive(0, "I", "t", i + 1, None, (i, 0)))
        assert writer.stats.flushes == flushes_after_open  # all buffered
        writer.commit(1)
        assert writer.stats.flushes == flushes_after_open + 1
        writer.close()

    def test_small_batch_flushes_eagerly(self, schema, tmp_path):
        writer = WalWriter(wal_path(tmp_path), schema=schema, batch_frames=2)
        flushes_after_open = writer.stats.flushes
        writer.begin(1)
        for i in range(4):
            writer.primitive(1, Primitive(0, "I", "t", i + 1, None, (i, 0)))
        assert writer.stats.flushes > flushes_after_open
        writer.close()

    def test_sync_policies(self, schema, tmp_path):
        for sync, expect_syncs in (("commit", True), ("never", False)):
            path = str(tmp_path / f"{sync}.wal")
            writer = WalWriter(path, schema=schema, sync=sync)
            writer.begin(1)
            writer.commit(1)
            assert (writer.stats.syncs > 0) is expect_syncs
            writer.close()
        with pytest.raises(ValueError):
            WalWriter(str(tmp_path / "bad.wal"), schema=schema, sync="wrong")

    def test_stats_counters(self, schema, tmp_path):
        writer = WalWriter(wal_path(tmp_path), schema=schema)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 1, None, (1, 2)))
        writer.primitive(1, Primitive(0, "D", "t", 1, (1, 2), None))
        writer.commit(1)
        writer.close()
        stats = writer.stats.to_dict()
        assert stats["frames_emitted"] == 5
        assert stats["primitives_logged"] == 2
        assert stats["bytes_written"] > 0
        assert stats["retries"] == 0

    def test_write_after_close_raises(self, schema, tmp_path):
        writer = WalWriter(wal_path(tmp_path), schema=schema)
        writer.close()
        with pytest.raises(WalError):
            writer.begin(1)
        writer.close()  # idempotent


# ----------------------------------------------------------------------
# Retry / backoff under injected I/O errors
# ----------------------------------------------------------------------


class TestRetries:
    def test_transient_errors_are_absorbed(self, schema, tmp_path):
        plan = FaultPlan(io_error_rate=0.5, max_io_errors=6, seed=11)
        slept = []
        writer = WalWriter(
            wal_path(tmp_path),
            schema=schema,
            fault_plan=plan,
            sleep=slept.append,
        )
        writer.begin(1)
        for i in range(20):
            writer.primitive(1, Primitive(0, "I", "t", i + 1, None, (i, 0)))
        writer.commit(1)
        writer.close()
        assert plan.io_errors_injected > 0
        assert writer.stats.retries == plan.io_errors_injected
        assert len(slept) == writer.stats.retries
        # Despite the faults the log is complete and recoverable.
        recovered = recover_database(wal_path(tmp_path))
        assert recovered.report.transactions_committed == 1
        assert recovered.report.primitives_replayed == 20

    def test_backoff_is_exponential(self, schema, tmp_path):
        plan = FaultPlan(io_error_rate=1.0, max_io_errors=3, seed=0)
        slept = []
        writer = WalWriter(
            wal_path(tmp_path),
            schema=schema,
            fault_plan=plan,
            backoff_base=0.5,
            sleep=slept.append,
        )
        writer.close()
        assert slept[:3] == [0.5, 1.0, 2.0]

    def test_permanent_failure_raises_wal_write_error(self, schema, tmp_path):
        plan = FaultPlan(io_error_rate=1.0, max_io_errors=None, seed=0)
        with pytest.raises(WalWriteError):
            WalWriter(
                wal_path(tmp_path),
                schema=schema,
                fault_plan=plan,
                sleep=lambda delay: None,
            )


# ----------------------------------------------------------------------
# Crash simulation plumbing
# ----------------------------------------------------------------------


class TestSimulatedCrash:
    def test_crash_at_boundary_leaves_exact_prefix(self, schema, tmp_path):
        path = wal_path(tmp_path)
        plan = FaultPlan(crash_after_frames=3)
        writer = WalWriter(path, schema=schema, fault_plan=plan)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 1, None, (1, 2)))
        with pytest.raises(SimulatedCrash):
            writer.commit(1)  # the C frame would be #3 (0-based)
        scan = scan_frames(path)
        assert [f.kind for f in scan.frames] == ["H", "B", "P"]
        assert not scan.torn_tail

    def test_torn_tail_is_written_and_truncated(self, schema, tmp_path):
        path = wal_path(tmp_path)
        plan = FaultPlan(crash_after_frames=2, torn_bytes=5)
        writer = WalWriter(path, schema=schema, fault_plan=plan)
        writer.begin(1)
        with pytest.raises(SimulatedCrash):
            writer.primitive(1, Primitive(0, "I", "t", 1, None, (1, 2)))
        scan = scan_frames(path)
        assert [f.kind for f in scan.frames] == ["H", "B"]
        assert scan.torn_tail
        assert os.path.getsize(path) == scan.valid_bytes + 5


# ----------------------------------------------------------------------
# Recovery on hand-built logs
# ----------------------------------------------------------------------


class TestRecovery:
    def test_missing_header_frame_raises(self, tmp_path):
        path = wal_path(tmp_path)
        write_raw(path, MAGIC, encode_frame({"t": "B", "x": 1}))
        with pytest.raises(WalError):
            recover_database(path)

    def test_unsupported_version_raises(self, schema, tmp_path):
        path = wal_path(tmp_path)
        write_raw(
            path,
            MAGIC,
            encode_frame({"t": "H", "v": 99, "schema": schema.to_spec()}),
        )
        with pytest.raises(WalError):
            recover_database(path)

    def test_checkpoint_restores_base_state(self, schema, tmp_path):
        database = Database(schema)
        database.load("t", [(1, 10), (2, 20)])
        database.load("u", [(5, "hello")])
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.checkpoint(database)
        writer.begin(1)
        writer.commit(1)
        writer.close()
        result = recover_database(path)
        assert result.report.checkpoint_rows == 3
        assert result.database.canonical() == database.canonical()
        # Tids survive too — later replays depend on them.
        assert sorted(result.database.table("t").items()) == sorted(
            database.table("t").items()
        )

    def test_uncommitted_transaction_discarded(self, schema, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 1, None, (1, 2)))
        writer.commit(1)
        writer.begin(2)
        writer.primitive(2, Primitive(0, "I", "t", 2, None, (3, 4)))
        writer.close()  # no commit for txn 2
        result = recover_database(path)
        assert result.report.transactions_committed == 1
        assert result.report.open_transaction_discarded
        assert result.database.canonical() == (("t", ((1, 2),)), ("u", ()))

    def test_aborted_transaction_skipped(self, schema, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 1, None, (9, 9)))
        writer.abort(1)
        writer.begin(2)
        writer.primitive(2, Primitive(0, "I", "t", 1, None, (1, 2)))
        writer.commit(2)
        writer.close()
        result = recover_database(path)
        assert result.report.transactions_aborted == 1
        assert result.report.transactions_committed == 1
        assert result.database.canonical() == (("t", ((1, 2),)), ("u", ()))

    def test_next_tid_advances_past_replayed_rows(self, schema, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 41, None, (1, 2)))
        writer.commit(1)
        writer.close()
        recovered = recover_database(path).database
        tid = recovered.insert_row("t", (7, 7))
        assert tid > 41

    def test_database_recover_classmethod(self, schema, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.begin(1)
        writer.primitive(1, Primitive(0, "I", "t", 1, None, (1, 2)))
        writer.commit(1)
        writer.close()
        recovered = Database.recover(path)
        assert recovered.canonical() == (("t", ((1, 2),)), ("u", ()))

    def test_recover_onto_live_catalog(self, schema, tmp_path):
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=schema)
        writer.begin(1)
        writer.commit(1)
        writer.close()
        recovered = Database.recover(path, schema=schema)
        assert recovered.schema is schema
        other = schema_from_spec({"different": ["id"]})
        with pytest.raises(WalError):
            Database.recover(path, schema=other)

    def test_typed_values_roundtrip(self, schema, tmp_path):
        # str/float/bool/None all survive the JSON frame encoding.
        spec = {"m": ["id", "name:string", "score:float", "flag:bool"]}
        typed = schema_from_spec(spec)
        database = Database(typed)
        database.load("m", [(1, "a", 1.5, True), (2, "b", -0.25, False)])
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=typed)
        writer.checkpoint(database)
        writer.begin(1)
        writer.primitive(
            1, Primitive(0, "I", "m", 3, None, (3, "c", None, True))
        )
        writer.commit(1)
        writer.close()
        recovered = recover_database(path).database
        database.table("m").insert(3, (3, "c", None, True))
        assert recovered.canonical() == database.canonical()


class TestCheckpointBytes:
    """The ``K`` frame is pinned to the bytes of the per-row encoding it
    replaced: ``[[tid, list(values)], ...]`` in tid order per table."""

    def _database(self):
        typed = schema_from_spec(
            {
                "m": ["id", "name:string", "score:float", "flag:bool"],
                "t": ["id", "v"],
            }
        )
        database = Database(typed)
        database.load(
            "m",
            [
                (1, "a", 1.5, True),
                (2, "é \"quoted\"", -0.25, False),
                (3, None, 2, None),
                (None, "", 1e-300, True),
                (-7, "x", float(10**20), False),
            ],
        )
        # Tid gaps from deletes.
        database.delete_row("m", 2)
        database.delete_row("m", 4)
        # Descending explicit tids, as server publication and parallel
        # merges can store them: dict order is not tid order.
        table = database.table("t")
        for tid in (40, 31, 27, 12):
            table.insert(tid, (tid, tid * 2))
        database._next_tid = 41
        return database

    def test_k_frame_equals_the_per_row_encoding(self, tmp_path):
        database = self._database()
        assert list(database.table("t")._rows) != sorted(
            database.table("t")._rows
        )
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=database.schema)
        writer.checkpoint(database)
        writer.close()
        old_payload = {
            "t": "K",
            "next_tid": database._next_tid,
            "tables": {
                table.name: [
                    [tid, list(values)]
                    for tid, values in database.table(table.name).items()
                ]
                for table in database.schema
            },
        }
        scan = scan_frames(path)
        frame = scan.frames[1]
        assert frame.kind == "K"
        with open(path, "rb") as handle:
            handle.seek(frame.offset)
            written = handle.read(frame.end - frame.offset)
        assert written == encode_frame(old_payload)

    def test_checkpoint_roundtrips_tids_and_counter(self, tmp_path):
        database = self._database()
        path = wal_path(tmp_path)
        writer = WalWriter(path, schema=database.schema)
        writer.checkpoint(database)
        writer.close()
        result = recover_database(path)
        recovered = result.database
        assert result.report.checkpoint_rows == 7
        assert recovered.canonical() == database.canonical()
        assert recovered._next_tid == database._next_tid
        for name in ("m", "t"):
            assert recovered.table(name).items() == database.table(name).items()
