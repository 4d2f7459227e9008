"""Durability benchmarks and the WAL regression gate.

Not a paper experiment — the durability subsystem (PR: WAL + recovery)
must stay cheap enough that durable runs remain usable for the
experiments and demos. Reported and gated
(``python benchmarks/bench_wal.py --gate``, also run as pytest tests):

* **durable overhead** — the power-network case study driven through
  repeated overload transitions with per-transaction commits must run
  within ``--max-overhead`` (default 3x) of the identical in-memory
  session, and produce byte-identical results (rules considered,
  observables, final canonical database);
* **recovery replay rate** — replaying a multi-transaction WAL of
  tuple primitives must sustain at least ``--min-replay-rate``
  primitives/second (default 10k/s), and land on exactly the written
  state;
* **durable/recovery equivalence** — the state recovered from the
  durable session's WAL equals the live session's final state.

Metrics land in ``BENCH_wal.json`` (``--out``) for CI artifact upload.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.wal import WalWriter, recover_database
from repro.runtime.processor import RuleProcessor
from repro.transitions.delta import Primitive
from repro.workloads.powernet import power_network_workload

GATE_SCHEMA_VERSION = 1


def _drive_powernet(size: int, transitions: int, wal_path: str | None):
    """One power-network session: repeated overload transitions, each
    committed. Returns (record, seconds); the record captures everything
    the equivalence assertions compare."""
    workload = power_network_workload(size)
    processor = RuleProcessor(
        workload.ruleset,
        workload.database.copy(),
        max_steps=50_000,
        config=ExecutionConfig(wal=wal_path),
    )
    considered: list[str] = []
    started = time.perf_counter()
    for __ in range(transitions):
        for statement in workload.overload_transition():
            processor.execute_user(statement)
        result = processor.run()
        considered.extend(result.rules_considered)
        processor.commit()
    elapsed = time.perf_counter() - started
    record = {
        "considered": considered,
        "observables": tuple(str(o) for o in processor.observables),
        "final": processor.database.canonical(),
    }
    processor.close()
    return record, elapsed


def run_overhead_gate(
    size: int = 8,
    transitions: int = 12,
    repeats: int = 3,
    max_overhead: float = 3.0,
) -> dict:
    """Durable vs. in-memory powernet sessions: equivalent results,
    bounded slowdown. Takes the best of *repeats* for each mode so a
    single scheduling hiccup doesn't fail the gate."""
    with tempfile.TemporaryDirectory() as tmp:
        memory_records, memory_times = [], []
        durable_records, durable_times = [], []
        for attempt in range(repeats):
            record, seconds = _drive_powernet(size, transitions, None)
            memory_records.append(record)
            memory_times.append(seconds)
            wal_path = os.path.join(tmp, f"powernet{attempt}.wal")
            record, seconds = _drive_powernet(size, transitions, wal_path)
            durable_records.append(record)
            durable_times.append(seconds)

        assert all(r == memory_records[0] for r in memory_records)
        assert all(r == durable_records[0] for r in durable_records), (
            "durable sessions diverge run-to-run"
        )
        assert memory_records[0] == durable_records[0], (
            "durable session's results diverge from the in-memory run"
        )

        # Recovery equivalence rides along: the last WAL must land on
        # the live session's final state.
        recovery = recover_database(wal_path)
        assert (
            recovery.database.canonical() == durable_records[0]["final"]
        ), "recovered state diverges from the live durable session"

    memory_best = min(memory_times)
    durable_best = min(durable_times)
    overhead = durable_best / max(1e-9, memory_best)
    return {
        "network_size": size,
        "transitions": transitions,
        "rules_considered": len(memory_records[0]["considered"]),
        "memory_seconds": round(memory_best, 4),
        "durable_seconds": round(durable_best, 4),
        "durable_overhead": round(overhead, 3),
        "committed_transactions": transitions,
        "recovered_transactions": recovery.report.transactions_committed,
        "equivalent": True,
    }


def _write_replay_wal(path: str, txns: int, primitives_per_txn: int) -> int:
    """A multi-transaction WAL of insert/update primitives; returns the
    primitive count."""
    base = power_network_workload(3)
    writer = WalWriter(path, schema=base.schema, sync="commit")
    writer.checkpoint(base.database)
    written = 0
    tid = 1_000
    for txn in range(1, txns + 1):
        writer.begin(txn)
        for i in range(primitives_per_txn):
            if i % 8 == 7:
                # Update a row inserted earlier in this transaction.
                writer.primitive(
                    txn,
                    Primitive(
                        0, "U", "node", tid - 1,
                        (tid - 1, 2, 4), (tid - 1, 3, 4),
                    ),
                )
            else:
                tid += 1
                writer.primitive(
                    txn, Primitive(0, "I", "node", tid, None, (tid, 2, 4))
                )
            written += 1
        writer.commit(txn)
    writer.close()
    return written


def run_recovery_gate(
    txns: int = 100,
    primitives_per_txn: int = 300,
    min_replay_rate: float = 10_000.0,
) -> dict:
    """Recovery replay throughput over a 30k-primitive WAL."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "replay.wal")
        written = _write_replay_wal(path, txns, primitives_per_txn)
        result = recover_database(path)
    report = result.report
    assert report.transactions_committed == txns
    assert report.primitives_replayed == written
    # Every insert primitive became a row (updates rewrite in place).
    inserts = sum(
        1 for i in range(primitives_per_txn) if i % 8 != 7
    ) * txns
    base_rows = report.checkpoint_rows
    assert (
        sum(len(result.database.table(t.name)) for t in result.database.schema)
        == inserts + base_rows
    )
    rate = report.primitives_replayed / max(1e-9, report.replay_seconds)
    return {
        "transactions": txns,
        "primitives_replayed": report.primitives_replayed,
        "wal_frames": report.frames_read,
        "replay_seconds": round(report.replay_seconds, 4),
        "replay_primitives_per_second": round(rate, 1),
        "recovered_rows": inserts + base_rows,
    }


def run_gate(
    max_overhead: float = 3.0,
    min_replay_rate: float = 10_000.0,
    out_path: str | None = None,
) -> dict:
    """The full WAL gate; raises AssertionError on any regression."""
    overhead = run_overhead_gate(max_overhead=max_overhead)
    recovery = run_recovery_gate(min_replay_rate=min_replay_rate)

    payload = {
        "schema_version": GATE_SCHEMA_VERSION,
        "gate": {
            "max_overhead": max_overhead,
            "min_replay_rate": min_replay_rate,
        },
        "durable_overhead": overhead,
        "recovery": recovery,
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert overhead["durable_overhead"] <= max_overhead, (
        f"durable overhead {overhead['durable_overhead']}x exceeds "
        f"gate maximum {max_overhead}x"
    )
    assert recovery["replay_primitives_per_second"] >= min_replay_rate, (
        f"replay rate {recovery['replay_primitives_per_second']}/s below "
        f"gate minimum {min_replay_rate}/s"
    )
    return payload


def test_gate_durable_overhead_and_equivalence():
    metrics = run_overhead_gate()
    assert metrics["equivalent"]
    assert metrics["durable_overhead"] <= 3.0


def test_gate_recovery_replay_rate():
    metrics = run_recovery_gate()
    assert metrics["replay_primitives_per_second"] >= 10_000.0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="WAL durability regression gate"
    )
    parser.add_argument("--gate", action="store_true", help="run the gate")
    parser.add_argument(
        "--out",
        default="BENCH_wal.json",
        help="where to write the metrics JSON (default: BENCH_wal.json)",
    )
    parser.add_argument("--max-overhead", type=float, default=3.0)
    parser.add_argument("--min-replay-rate", type=float, default=10_000.0)
    args = parser.parse_args(argv)

    payload = run_gate(
        max_overhead=args.max_overhead,
        min_replay_rate=args.min_replay_rate,
        out_path=args.out,
    )
    print(json.dumps(payload, indent=2))
    print(f"\ngate passed; metrics written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
