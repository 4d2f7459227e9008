"""Delta log tests."""

import pytest

from repro.transitions.delta import ColumnTouchIndex, DeltaLog, Primitive


class TestPrimitiveValidation:
    """Shape invariants live on the validating `checked` constructor —
    the hot append path (the typed `DeltaLog.record_*` constructors)
    enforces them by signature and skips runtime validation."""

    def test_insert_shape(self):
        Primitive.checked(0, "I", "t", 1, None, (1,))
        with pytest.raises(ValueError):
            Primitive.checked(0, "I", "t", 1, (1,), (1,))
        with pytest.raises(ValueError):
            Primitive.checked(0, "I", "t", 1, None, None)

    def test_delete_shape(self):
        Primitive.checked(0, "D", "t", 1, (1,), None)
        with pytest.raises(ValueError):
            Primitive.checked(0, "D", "t", 1, None, (1,))

    def test_update_shape(self):
        Primitive.checked(0, "U", "t", 1, (1,), (2,))
        with pytest.raises(ValueError):
            Primitive.checked(0, "U", "t", 1, (1,), None)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="bad primitive kind"):
            Primitive.checked(0, "X", "t", 1, None, (1,))

    def test_lean_layout(self):
        # One instance per tuple touched: no per-instance __dict__.
        assert not hasattr(Primitive(0, "I", "t", 1, None, (1,)), "__dict__")

    def test_value_equality(self):
        assert Primitive(0, "I", "t", 1, None, (1,)) == Primitive.checked(
            0, "I", "t", 1, None, (1,)
        )


class TestDeltaLogSharing:
    def test_fork_aliases_prefix(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.record_insert("t", 2, (2,))
        clone = log.fork()
        assert clone.position == 2
        assert clone.all() == log.all()
        # Appends stay private to each side.
        log.record_insert("t", 3, (3,))
        clone.record_insert("u", 9, (9,))
        assert [p.tid for p in log.all()] == [1, 2, 3]
        assert [p.tid for p in clone.all()] == [1, 2, 9]

    def test_since_spans_sealed_chunks(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.seal()
        log.record_insert("t", 2, (2,))
        log.fork()  # seals again
        log.record_insert("t", 3, (3,))
        assert [p.tid for p in log.since(1)] == [2, 3]
        assert [p.tid for p in log.since(0)] == [1, 2, 3]
        assert list(log.iter_range(1, 2))[0].tid == 2

    def test_touch_index_tracks_last_write(self):
        log = DeltaLog()
        assert log.last_write("t") == 0
        log.record_insert("t", 1, (1,))
        log.record_insert("u", 2, (2,))
        assert log.last_write("t") == 1
        assert log.last_write("u") == 2
        clone = log.fork()
        clone.record_insert("t", 3, (3,))
        assert clone.last_write("t") == 3
        assert log.last_write("t") == 1

    def test_truncate_across_chunks_rebuilds_touch_index(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.record_insert("u", 2, (2,))
        log.seal()
        log.record_insert("u", 3, (3,))
        log.truncate(1)
        assert log.position == 1
        assert log.last_write("t") == 1
        assert log.last_write("u") == 0


class TestDeltaLog:
    def test_positions_advance(self):
        log = DeltaLog()
        assert log.position == 0
        log.record_insert("t", 1, (1,))
        assert log.position == 1
        log.record_delete("t", 1, (1,))
        assert log.position == 2

    def test_since_returns_suffix(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        marker = log.position
        log.record_insert("t", 2, (2,))
        suffix = log.since(marker)
        assert len(suffix) == 1
        assert suffix[0].tid == 2

    def test_since_zero_is_everything(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        assert log.since(0) == log.all()

    def test_negative_marker_rejected(self):
        with pytest.raises(ValueError):
            DeltaLog().since(-1)

    def test_sequence_numbers_are_consecutive(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.record_update("t", 1, (1,), (2,))
        assert [p.seq for p in log.all()] == [0, 1]

    def test_table_names_lowercased(self):
        log = DeltaLog()
        primitive = log.record_insert("T", 1, (1,))
        assert primitive.table == "t"

    def test_truncate(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        position = log.position
        log.record_insert("t", 2, (2,))
        log.truncate(position)
        assert log.position == position
        assert [p.tid for p in log.all()] == [1]


class TestLastWriteEdges:
    """Epoch-source edge cases the MVCC validator leans on: every write
    epoch is one-past the primitive's seq, 0 means never written, and
    rollback (truncate) restores exactly the pre-transaction epochs."""

    def test_update_as_retract_plus_insert_advances_the_epoch(self):
        # An engine may express an in-place update as delete+insert;
        # both primitives must advance the table's write epoch so a
        # validator snapshot taken before either of them conflicts.
        log = DeltaLog()
        log.record_insert("t", 1, (1, 5))
        epoch = log.position
        log.record_delete("t", 1, (1, 5))
        log.record_insert("t", 2, (1, 6))
        assert log.last_write("t") == 3
        assert log.last_write("t") > epoch

    def test_epoch_is_one_past_seq(self):
        log = DeltaLog()
        primitive = log.record_insert("t", 1, (1,))
        assert primitive.seq == 0
        assert log.last_write("t") == 1  # seq + 1: compares with `>`
        assert log.last_write("never_written") == 0

    def test_rolled_back_transaction_restores_epochs(self):
        # Transaction 1 commits, transaction 2 writes t and u then rolls
        # back: u's epoch must drop back to "never", t's to commit 1's.
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        mark = log.position
        log.record_update("t", 1, (1,), (2,))
        log.record_insert("u", 9, (9,))
        log.truncate(mark)
        assert log.last_write("t") == 1
        assert log.last_write("u") == 0

    def test_truncate_to_zero_clears_every_epoch(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.record_insert("u", 2, (2,))
        log.truncate(0)
        assert log.last_write("t") == 0
        assert log.last_write("u") == 0

    def test_written_since_matches_last_write(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        mark = log.position
        assert not log.written_since("t", mark)
        log.record_delete("t", 1, (1,))
        assert log.written_since("t", mark)
        assert not log.written_since("u", 0)


class TestColumnTouchIndex:
    def observe_all(self, index, log):
        for primitive in log.all():
            index.observe(primitive)

    def test_update_touches_only_changed_columns(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 5, 7))
        mark = log.position
        log.record_update("t", 1, (1, 5, 7), (1, 6, 7))  # column 1 only
        touch = ColumnTouchIndex()
        self.observe_all(touch, log)
        assert touch.updated_since("t", 1, mark)
        assert not touch.updated_since("t", 0, mark)
        assert not touch.updated_since("t", 2, mark)

    def test_insert_and_delete_tracked_separately(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        mark = log.position
        log.record_delete("t", 1, (1,))
        touch = ColumnTouchIndex()
        self.observe_all(touch, log)
        assert touch.inserted_since("t", 0)
        assert not touch.inserted_since("t", mark)
        assert touch.deleted_since("t", mark)
        assert not touch.deleted_since("t", log.position)

    def test_any_update_since(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1, 5))
        mark = log.position
        touch = ColumnTouchIndex()
        self.observe_all(touch, log)
        assert not touch.any_update_since("t", mark)
        touch.observe(log.record_update("t", 1, (1, 5), (1, 6)))
        assert touch.any_update_since("t", mark)
        assert not touch.any_update_since("t", log.position)

    def test_unknown_table_never_touched(self):
        touch = ColumnTouchIndex()
        assert not touch.inserted_since("ghost", 0)
        assert not touch.deleted_since("ghost", 0)
        assert not touch.updated_since("ghost", 0, 0)
        assert not touch.any_update_since("ghost", 0)


class TestCompaction:
    """The server log compacts after every publication: positions and
    write epochs must survive, stored primitives must not."""

    def test_compact_preserves_position_and_epochs(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.record_update("t", 1, (1,), (2,))
        position = log.position
        dropped = log.compact()
        assert dropped == 2
        assert log.position == position
        assert log.last_write("t") == position
        assert log.all() == []
        assert list(log.iter_range(0, position)) == []

    def test_sequence_continues_after_compaction(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.compact()
        primitive = log.record_insert("t", 2, (2,))
        assert primitive.seq == 1
        assert log.position == 2
        assert [p.tid for p in log.all()] == [2]

    def test_compact_twice_is_idempotent(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.compact()
        assert log.compact() == 0

    def test_reads_after_compaction_start_at_the_floor(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.record_insert("t", 2, (2,))
        log.compact()
        log.record_insert("t", 3, (3,))
        log.seal()  # a chunk past the floor
        log.record_insert("t", 4, (4,))
        assert [p.tid for p in log.iter_range(2, 4)] == [3, 4]
        assert [p.tid for p in log.iter_range(3, 4)] == [4]
        assert [p.tid for p in log.iter_range(0, 3)] == [3]
        assert list(log.iter_range(0, 2)) == []
        assert [p.tid for p in log.since(1)] == [3, 4]

    @pytest.mark.parametrize("sealed", [True, False])
    def test_fork_after_compaction_keeps_positions(self, sealed):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.compact()
        log.record_insert("t", 2, (2,))
        if sealed:
            log.seal()  # the suffix past the floor is a chunk already
        clone = log.fork()
        clone.record_insert("t", 3, (3,))
        assert [p.tid for p in clone.since(1)] == [2, 3]
        assert [p.seq for p in clone.all()] == [1, 2]
        assert [p.tid for p in log.since(0)] == [2]

    def test_compaction_leaves_earlier_forks_intact(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        clone = log.fork()
        log.compact()
        assert [p.tid for p in clone.since(0)] == [1]

    def test_truncate_above_the_floor(self):
        log = DeltaLog()
        log.record_insert("u", 1, (1,))
        log.compact()
        log.record_insert("t", 2, (2,))
        log.record_insert("u", 3, (3,))
        log.truncate(2)
        assert log.position == 2
        assert [p.tid for p in log.all()] == [2]
        assert log.last_write("t") == 2
        # u's last kept write was compacted away: the floor bounds it
        assert log.written_since("u", 0) and not log.written_since("u", 1)
        assert log.record_insert("t", 4, (4,)).seq == 2

    def test_truncate_below_the_floor_is_refused(self):
        log = DeltaLog()
        log.record_insert("t", 1, (1,))
        log.record_insert("t", 2, (2,))
        log.compact()
        with pytest.raises(ValueError, match="compaction floor"):
            log.truncate(1)
