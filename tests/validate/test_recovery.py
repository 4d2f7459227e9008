"""Crash-matrix recovery tests: every frame boundary, torn tails, faults.

The harness drives randomized generator workloads through a durable
:class:`RuleProcessor`, recording ground truth at every commit marker
(``commit()`` returns the WAL frame count at the marker, and the
database is copied at that instant). It then simulates a crash at
*every* frame boundary of the finished log — by truncating a copy of
the file to the boundary's byte offset — and asserts that recovery
lands exactly on the committed prefix:

* the recovered database's ``canonical()`` equals the canonical
  recorded at the last commit marker inside the prefix (or the
  checkpoint/base state when no commit made it);
* torn tails (boundary + k bytes of the next frame) and CRC-corrupted
  tails recover to the same state, with the tail truncated, never an
  error;
* re-running the *next* transaction on the recovered database
  considers the same rule sequence and reaches the same final state
  as running it on the reference copy captured at the commit.

A fast subset runs in tier 1; the full matrix (hundreds of crash
points) is marked ``slow``/``simulation`` and runs in the dedicated CI
simulation job.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field

import pytest

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.wal import WalWriter, recover_database, scan_frames
from repro.errors import RuleProcessingLimitExceeded
from repro.rules.ruleset import RuleSet
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import FirstEligibleStrategy
from repro.validate.faults import FaultPlan, SimulatedCrash
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)

CONFIG = GeneratorConfig(
    n_tables=3,
    n_columns=2,
    n_rules=4,
    rows_per_table=3,
    statements_per_transition=2,
)


@dataclass
class CommitPoint:
    """Ground truth recorded at one commit marker."""

    #: WAL frame count as of the commit frame (``commit()``'s return)
    frames: int
    canonical: tuple
    #: independent copy of the database at the marker
    database: Database
    #: the statements the *next* transaction will run (may be empty)
    next_statements: list[str] = field(default_factory=list)


@dataclass
class SessionTrace:
    ruleset: RuleSet
    initial_canonical: tuple
    commits: list[CommitPoint]
    total_frames: int


def run_durable_session(
    path: str,
    seed: int,
    transactions: int = 3,
    wal=None,
) -> SessionTrace:
    """Run a randomized multi-transaction workload in durable mode.

    Deterministic end to end: the rule set, database, statements, and
    rule-selection strategy are all derived from *seed*, so two calls
    with the same seed emit byte-identical WALs (the online
    fault-injection tests rely on this to compute expectations from a
    fault-free twin run).
    """
    ruleset = RandomRuleSetGenerator(CONFIG, seed=seed).generate()
    instances = RandomInstanceGenerator(CONFIG)
    database = instances.generate_database(ruleset.schema, seed=seed)
    initial_canonical = database.canonical()
    statements = [
        instances.generate_transition(ruleset.schema, seed=seed * 100 + k)
        for k in range(transactions)
    ]
    processor = RuleProcessor(
        ruleset,
        database,
        strategy=FirstEligibleStrategy(),
        max_steps=200,
        config=ExecutionConfig(wal=path if wal is None else wal),
    )
    commits: list[CommitPoint] = []
    try:
        for k in range(transactions):
            for statement in statements[k]:
                processor.execute_user(statement)
            try:
                processor.run()
            except RuleProcessingLimitExceeded:
                break  # possible nontermination: stop the session here
            frames = processor.commit()
            commits.append(
                CommitPoint(
                    frames=frames,
                    canonical=database.canonical(),
                    database=database.copy(),
                    next_statements=(
                        statements[k + 1] if k + 1 < transactions else []
                    ),
                )
            )
    finally:
        processor.close()
    scan = scan_frames(path)
    return SessionTrace(
        ruleset=ruleset,
        initial_canonical=initial_canonical,
        commits=commits,
        total_frames=len(scan.frames),
    )


def expected_canonical(trace: SessionTrace, frames_in_prefix: int) -> tuple:
    """State recovery must land on given a prefix of *frames_in_prefix*.

    Frame 0 is the header, frame 1 the checkpoint (generated databases
    are never empty); a commit at ``frames=n`` is frame ``n - 1``, so
    it is inside the prefix iff ``n <= frames_in_prefix``.
    """
    expected = (
        trace.initial_canonical
        if frames_in_prefix >= 2
        else empty_canonical(trace.ruleset)
    )
    for commit in trace.commits:
        if commit.frames <= frames_in_prefix:
            expected = commit.canonical
    return expected


def empty_canonical(ruleset: RuleSet) -> tuple:
    return Database(ruleset.schema).canonical()


def truncate_to(source: str, target: str, size: int, tail: bytes = b"") -> str:
    with open(source, "rb") as handle:
        prefix = handle.read(size)
    with open(target, "wb") as handle:
        handle.write(prefix)
        handle.write(tail)
    return target


def read_frame_bytes(path: str) -> list[tuple[int, int]]:
    """(offset, end) per frame of the finished log."""
    return [(f.offset, f.end) for f in scan_frames(path).frames]


def boundary_indices(count: int, cap: int = 256) -> list[int]:
    """Every boundary, or an even stride when the log is huge.

    A cascading workload can emit thousands of frames; sweeping every
    boundary of such a log is quadratic (each recovery rescans the
    prefix). Up to *cap* frames the sweep is exhaustive; beyond that it
    strides evenly and always includes the final boundary.
    """
    if count <= cap:
        return list(range(count))
    stride = -(-count // cap)
    indices = list(range(0, count, stride))
    if indices[-1] != count - 1:
        indices.append(count - 1)
    return indices


def crash_matrix(tmp_path, seeds, torn_lengths=()) -> int:
    """Run the full boundary sweep for *seeds*; return crash points."""
    points = 0
    for seed in seeds:
        wal = str(tmp_path / f"s{seed}.wal")
        trace = run_durable_session(wal, seed=seed)
        spans = read_frame_bytes(wal)
        crashed = str(tmp_path / f"s{seed}.crash.wal")
        for index in boundary_indices(len(spans)):
            offset, end = spans[index]
            expected = expected_canonical(trace, index + 1)
            # Clean crash exactly at the boundary.
            truncate_to(wal, crashed, end)
            result = recover_database(crashed)
            assert result.database.canonical() == expected, (
                f"seed {seed}: boundary after frame {index}"
            )
            assert not result.report.torn_tail
            points += 1
            # Torn continuation: k bytes of the next frame follow.
            next_size = (
                spans[index + 1][1] - spans[index + 1][0]
                if index + 1 < len(spans)
                else 0
            )
            for torn in torn_lengths:
                if next_size == 0 or torn >= next_size:
                    continue
                with open(wal, "rb") as handle:
                    handle.seek(end)
                    tail = handle.read(torn)
                truncate_to(wal, crashed, end, tail)
                result = recover_database(crashed)
                assert result.database.canonical() == expected, (
                    f"seed {seed}: torn {torn}B after frame {index}"
                )
                assert result.report.torn_tail
                points += 1
    return points


# ----------------------------------------------------------------------
# Offline crash matrix (truncate the finished log at every boundary)
# ----------------------------------------------------------------------


class TestCrashMatrix:
    def test_every_boundary_fast_subset(self, tmp_path):
        points = crash_matrix(tmp_path, seeds=[1, 2], torn_lengths=(1,))
        assert points > 20

    @pytest.mark.slow
    @pytest.mark.simulation
    def test_every_boundary_full_matrix(self, tmp_path):
        points = crash_matrix(
            tmp_path,
            seeds=list(range(1, 9)),
            torn_lengths=(1, 3, 7),
        )
        # The acceptance floor: the matrix covers hundreds of distinct
        # crash points across randomized workloads.
        assert points >= 200, f"only {points} crash points exercised"

    def test_crc_corrupt_tail_truncates_to_last_good_frame(self, tmp_path):
        wal = str(tmp_path / "run.wal")
        trace = run_durable_session(wal, seed=3)
        spans = read_frame_bytes(wal)
        assert trace.commits, "workload must commit at least once"
        # Corrupt one byte inside the final frame's body.
        corrupt = str(tmp_path / "corrupt.wal")
        shutil.copyfile(wal, corrupt)
        last_offset, last_end = spans[-1]
        with open(corrupt, "r+b") as handle:
            handle.seek(last_end - 1)
            byte = handle.read(1)
            handle.seek(last_end - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        result = recover_database(corrupt)
        assert result.report.torn_tail
        assert result.report.frames_read == len(spans) - 1
        assert result.database.canonical() == expected_canonical(
            trace, len(spans) - 1
        )

    def test_full_log_recovers_final_commit(self, tmp_path):
        wal = str(tmp_path / "run.wal")
        trace = run_durable_session(wal, seed=4)
        assert trace.commits
        result = recover_database(wal)
        assert result.database.canonical() == trace.commits[-1].canonical
        assert result.report.transactions_committed == len(trace.commits)


# ----------------------------------------------------------------------
# Re-triggering equivalence after recovery
# ----------------------------------------------------------------------


def run_transaction(ruleset: RuleSet, database: Database, statements):
    processor = RuleProcessor(
        ruleset,
        database,
        strategy=FirstEligibleStrategy(),
        max_steps=200,
    )
    for statement in statements:
        processor.execute_user(statement)
    result = processor.run()
    return result.rules_considered, database.canonical()


class TestRetriggerEquivalence:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_next_transaction_matches_reference(self, tmp_path, seed):
        """A processor reopened on the recovered state must consider the
        same rules, in the same order, and land on the same final state
        as one continuing from the in-memory reference copy."""
        wal = str(tmp_path / "run.wal")
        trace = run_durable_session(wal, seed=seed)
        crashed = str(tmp_path / "crashed.wal")
        checked = 0
        for commit in trace.commits:
            if not commit.next_statements:
                continue
            boundary = read_frame_bytes(wal)[commit.frames - 1][1]
            truncate_to(wal, crashed, boundary)
            # Recover onto the live catalog object so the rule set
            # (parsed against it) can reattach directly.
            recovered = recover_database(
                crashed, schema=trace.ruleset.schema
            ).database
            assert recovered.canonical() == commit.canonical
            try:
                reference = run_transaction(
                    trace.ruleset,
                    commit.database.copy(),
                    commit.next_statements,
                )
            except RuleProcessingLimitExceeded:
                continue
            replayed = run_transaction(
                trace.ruleset, recovered, commit.next_statements
            )
            assert replayed == reference
            checked += 1
        if not trace.commits:
            pytest.skip("workload hit the step limit before any commit")


# ----------------------------------------------------------------------
# Online fault injection (crash the live writer, then recover)
# ----------------------------------------------------------------------


class TestOnlineFaults:
    @pytest.mark.parametrize("crash_after", [2, 4, 7, 11, 16])
    def test_live_crash_recovers_to_committed_prefix(
        self, tmp_path, crash_after
    ):
        # Fault-free twin run provides the expectations.
        reference_wal = str(tmp_path / "reference.wal")
        trace = run_durable_session(reference_wal, seed=8)
        if crash_after >= trace.total_frames:
            pytest.skip("crash point beyond this workload's log")
        wal = str(tmp_path / "crashed.wal")
        plan = FaultPlan(crash_after_frames=crash_after)
        writer = WalWriter(
            wal,
            schema=trace.ruleset.schema,
            fault_plan=plan,
        )
        with pytest.raises(SimulatedCrash):
            run_durable_session(wal, seed=8, wal=writer)
        assert plan.crashed
        result = recover_database(wal)
        assert result.report.frames_read == crash_after
        assert result.database.canonical() == expected_canonical(
            trace, crash_after
        )

    def test_live_crash_with_torn_tail(self, tmp_path):
        reference_wal = str(tmp_path / "reference.wal")
        trace = run_durable_session(reference_wal, seed=9)
        crash_after = min(6, trace.total_frames - 1)
        wal = str(tmp_path / "crashed.wal")
        plan = FaultPlan(crash_after_frames=crash_after, torn_bytes=4)
        writer = WalWriter(wal, schema=trace.ruleset.schema, fault_plan=plan)
        with pytest.raises(SimulatedCrash):
            run_durable_session(wal, seed=9, wal=writer)
        result = recover_database(wal)
        assert result.report.torn_tail
        assert result.report.frames_read == crash_after
        assert result.database.canonical() == expected_canonical(
            trace, crash_after
        )

    def test_transient_io_errors_do_not_corrupt_the_log(self, tmp_path):
        reference_wal = str(tmp_path / "reference.wal")
        trace = run_durable_session(reference_wal, seed=10)
        wal = str(tmp_path / "flaky.wal")
        plan = FaultPlan(io_error_rate=0.3, max_io_errors=10, seed=10)
        writer = WalWriter(
            wal,
            schema=trace.ruleset.schema,
            fault_plan=plan,
            sleep=lambda delay: None,
        )
        flaky = run_durable_session(wal, seed=10, wal=writer)
        assert writer.stats.retries == plan.io_errors_injected
        assert flaky.commits and len(flaky.commits) == len(trace.commits)
        result = recover_database(wal)
        assert result.database.canonical() == trace.commits[-1].canonical

    @pytest.mark.slow
    @pytest.mark.simulation
    def test_live_crash_sweep(self, tmp_path):
        """Crash the live writer at every frame of a whole workload."""
        reference_wal = str(tmp_path / "reference.wal")
        trace = run_durable_session(reference_wal, seed=12)
        for crash_after in range(1, trace.total_frames):
            wal = str(tmp_path / f"crash{crash_after}.wal")
            plan = FaultPlan(crash_after_frames=crash_after)
            writer = WalWriter(
                wal, schema=trace.ruleset.schema, fault_plan=plan
            )
            with pytest.raises(SimulatedCrash):
                run_durable_session(wal, seed=12, wal=writer)
            result = recover_database(wal)
            assert result.database.canonical() == expected_canonical(
                trace, crash_after
            )
