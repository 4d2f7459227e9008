"""Every counter bag speaks the one :class:`~repro.stats.StatsBase` protocol.

The analysis engine's, the WAL writer's and the group-commit coalescer's
counters render exactly the dicts their reports, ``--stats`` and the
benchmarks have always read: same keys, same order, same values.
"""

import json

import pytest

from repro.analysis.engine import EngineStats
from repro.engine.plan import PlannerStats
from repro.engine.rete import ReteStats
from repro.engine.wal import GroupCommitStats, WalWriterStats
from repro.runtime.processor import ProcessorStats
from repro.runtime.server import ServerStats
from repro.stats import StatsBase


@pytest.mark.parametrize(
    "cls",
    [
        EngineStats,
        GroupCommitStats,
        PlannerStats,
        ProcessorStats,
        ReteStats,
        ServerStats,
        WalWriterStats,
    ],
)
def test_every_counter_bag_is_a_stats_base(cls):
    assert issubclass(cls, StatsBase)
    stats = cls()
    before = stats.snapshot()
    for name in cls.FIELDS:
        setattr(stats, name, getattr(stats, name) + 1)
    assert set(stats.delta_since(before)) == set(stats.to_dict())
    stats.reset()
    assert stats.to_dict() == cls().to_dict()


def test_engine_stats_render_counters_then_sorted_timings():
    stats = EngineStats()
    stats.pairs_judged += 3
    stats.lemma_memo_hits += 2
    stats.add_time("observable", 0.25)
    stats.add_time("confluence", 0.1234567)
    stats.add_time("observable", 0.5)
    assert json.dumps(stats.to_dict()) == json.dumps(
        {
            "pairs_judged": 3,
            "pair_memo_hits": 0,
            "lemma_judgments": 0,
            "lemma_memo_hits": 2,
            "invalidations": 0,
            "fixpoint_iterations": 0,
            "confluence_passes": 0,
            "timings": {"confluence": 0.123457, "observable": 0.75},
        }
    )
    stats.reset()
    assert stats.timings == {}


def test_wal_writer_stats_render_in_field_order():
    stats = WalWriterStats()
    stats.syncs += 2
    stats.bytes_written += 10
    assert json.dumps(stats.to_dict()) == json.dumps(
        {
            "frames_emitted": 0,
            "primitives_logged": 0,
            "bytes_written": 10,
            "flushes": 0,
            "syncs": 2,
            "retries": 0,
        }
    )


def test_group_commit_stats_render_a_string_keyed_histogram():
    stats = GroupCommitStats()
    stats.commits += 5
    stats.batches += 3
    stats.batch_sizes[2] = 1
    stats.batch_sizes[1] = 2
    assert json.dumps(stats.to_dict()) == json.dumps(
        {"commits": 5, "batches": 3, "batch_sizes": {"1": 2, "2": 1}}
    )
    assert stats.delta_since({"commits": 1, "batches": 1}) == {
        "commits": 4,
        "batches": 2,
        "batch_sizes": {"1": 2, "2": 1},
    }
