"""Concurrent-server benchmarks and the server regression gate.

Not a paper experiment — the concurrent session layer (PR: MVCC server
+ group-commit WAL) must actually buy throughput over the single-agent
model it generalizes, and must keep the semantics it promises. Reported
and gated (``python benchmarks/bench_server.py --gate``):

* **concurrent speedup** — the seeded streaming-ingestion workload
  driven through ``--workers`` (default 8) concurrent durable sessions
  with group commit must sustain at least ``--min-speedup`` (default
  3x) the commits/second of the identical workload driven through one
  serialized session with a per-commit fsync;
* **fsync amortization** — group commit must spend at least
  ``--min-fsync-factor`` (default 4x) fewer fsyncs per commit than the
  per-commit-fsync baseline, on the same code path (``max_batch=1``);
* **determinism oracle** — replaying the concurrent run's committed
  session scripts *serially in commit order* on a fresh instance must
  land on a byte-identical canonical database, and so must recovering
  the server's WAL — the serializable-validation soundness argument of
  DESIGN.md §15, checked end to end;
* **mixed-traffic honesty** — the workload's shared hot row forces
  genuine conflicts; the gate reports the abort rate and p50/p99 commit
  latency so contention regressions are visible in the artifact.

Both modes run against a simulated storage device
(:class:`~repro.validate.faults.DeviceLatency`, ``--sync-ms`` per
fsync, default 25ms ≈ a conservative commodity spinning disk with
write barriers), so the floors measure the architecture — fsync
amortization and compute/sync overlap — rather than the build
machine's page cache. Metrics land in ``BENCH_server.json``
(``--out``) for CI artifact upload.
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.config import ExecutionConfig, ServerOptions
from repro.engine.database import Database
from repro.runtime.server import RuleServer, serial_replay
from repro.validate.faults import DeviceLatency
from repro.workloads.streaming import drive_streaming, streaming_workload

GATE_SCHEMA_VERSION = 1


def _drive(
    rows: int,
    batch_rows: int,
    workers: int,
    group_commit: bool,
    sync_ms: float,
    wal_path: str,
    *,
    max_delay: float = 0.1,
    max_batch: int = 8,
    seed: int = 0,
):
    """One full ingestion run; returns (workload, server, drive report)."""
    workload = streaming_workload(
        rows=rows, batch_rows=batch_rows, seed=seed
    )
    server = RuleServer(
        workload.ruleset,
        workload.database,
        config=ExecutionConfig(wal=wal_path),
        options=ServerOptions(
            group_commit=group_commit,
            max_delay=max_delay,
            max_batch=max_batch,
        ),
        fault_plan=DeviceLatency(fsync_seconds=sync_ms / 1000.0),
        record_history=True,
    )
    report = drive_streaming(server, workload.batches, workers=workers)
    server.close()
    return workload, server, report


def run_gate(
    rows: int = 40_000,
    batch_rows: int = 100,
    workers: int = 8,
    sync_ms: float = 25.0,
    min_speedup: float = 3.0,
    min_fsync_factor: float = 4.0,
    out_path: str | None = None,
) -> dict:
    """The full server gate; raises AssertionError on any regression."""
    with tempfile.TemporaryDirectory() as tmp:
        base_wal = os.path.join(tmp, "baseline.wal")
        conc_wal = os.path.join(tmp, "concurrent.wal")

        base_workload, base_server, base_report = _drive(
            rows, batch_rows, 1, False, sync_ms, base_wal
        )
        conc_workload, conc_server, conc_report = _drive(
            rows, batch_rows, workers, True, sync_ms, conc_wal
        )

        batches = len(base_workload.batches)
        assert base_report.committed == batches
        assert conc_report.committed == batches

        base_fsyncs = base_server.wal.writer.stats.syncs / batches
        conc_fsyncs = conc_server.wal.writer.stats.syncs / batches
        speedup = base_report.elapsed_seconds / max(
            1e-9, conc_report.elapsed_seconds
        )
        fsync_factor = base_fsyncs / max(1e-9, conc_fsyncs)

        # The determinism oracle: serial replay of the committed session
        # scripts, in commit order, on a fresh instance.
        fresh = streaming_workload(rows=rows, batch_rows=batch_rows)
        replayed = serial_replay(
            fresh.ruleset, fresh.database, conc_server.history
        )
        final = conc_workload.database.canonical()
        oracle_equal = replayed.canonical() == final

        # Crash-consistency of the same run: the WAL replays to the
        # live server's state.
        recovered = Database.recover(conc_wal, schema=conc_workload.schema)
        recovery_equal = recovered.canonical() == final

        # The workload's per-region counters are order-independent by
        # construction, so the two modes must also agree with each other.
        modes_equal = base_workload.database.canonical() == final

    payload = {
        "schema_version": GATE_SCHEMA_VERSION,
        "gate": {
            "rows": rows,
            "batch_rows": batch_rows,
            "workers": workers,
            "sync_ms": sync_ms,
            "min_speedup": min_speedup,
            "min_fsync_factor": min_fsync_factor,
        },
        "baseline": {
            **base_report.to_dict(),
            "fsyncs_per_commit": round(base_fsyncs, 4),
            "server": base_server.stats.to_dict(),
        },
        "concurrent": {
            **conc_report.to_dict(),
            "fsyncs_per_commit": round(conc_fsyncs, 4),
            "server": conc_server.stats.to_dict(),
            "group_commit": conc_server.wal.stats.to_dict(),
        },
        "speedup": round(speedup, 3),
        "fsync_factor": round(fsync_factor, 3),
        "oracle_equal": oracle_equal,
        "recovery_equal": recovery_equal,
        "modes_equal": modes_equal,
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert oracle_equal, (
        "serial replay of the committed sessions diverges from the "
        "concurrent server's final state"
    )
    assert recovery_equal, (
        "WAL recovery diverges from the live concurrent server's state"
    )
    assert modes_equal, (
        "baseline and concurrent runs land on different final states"
    )
    assert speedup >= min_speedup, (
        f"concurrent speedup {speedup:.2f}x below gate minimum "
        f"{min_speedup}x ({workers} workers, group commit, vs one "
        f"serialized per-fsync session)"
    )
    assert fsync_factor >= min_fsync_factor, (
        f"group commit amortizes only {fsync_factor:.2f}x fewer fsyncs "
        f"per commit; gate minimum is {min_fsync_factor}x"
    )
    return payload


def test_gate_small_instance():
    """Gate mechanics at CI-test scale: oracle, recovery, and
    amortization must hold even when the instance is too small for the
    throughput floor to be meaningful."""
    payload = run_gate(
        rows=4_000, batch_rows=100, sync_ms=5.0,
        min_speedup=1.0, min_fsync_factor=2.0,
    )
    assert payload["oracle_equal"]
    assert payload["recovery_equal"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="concurrent rule-server regression gate"
    )
    parser.add_argument("--gate", action="store_true", help="run the gate")
    parser.add_argument(
        "--out",
        default="BENCH_server.json",
        help="where to write the metrics JSON (default: BENCH_server.json)",
    )
    parser.add_argument("--rows", type=int, default=40_000)
    parser.add_argument("--batch-rows", type=int, default=100)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--sync-ms", type=float, default=25.0)
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--min-fsync-factor", type=float, default=4.0)
    args = parser.parse_args(argv)

    payload = run_gate(
        rows=args.rows,
        batch_rows=args.batch_rows,
        workers=args.workers,
        sync_ms=args.sync_ms,
        min_speedup=args.min_speedup,
        min_fsync_factor=args.min_fsync_factor,
        out_path=args.out,
    )
    print(json.dumps(payload, indent=2))
    print(f"\ngate passed; metrics written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
