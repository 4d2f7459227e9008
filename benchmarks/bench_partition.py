"""Partitioned execution gate.

``ExecutionConfig(partitions=P)`` exists to make rule processing scale
with shards instead of tables: a scan carrying an equality conjunct on
a table's declared partition key prunes to one shard. Every other scan
reads the flat table in tid order, and rules are considered one at a
time either way. This gate pins both properties:

* **speedup** — on the 10⁵-row multi-domain drain workload
  (:mod:`repro.workloads.partitioned`), the sharded configuration at
  4 partitions finishes at least ``--min-speedup`` (default 2) times
  faster than the default flat configuration, measured wall-clock
  best-of-``repeats``;
* **equivalence** — identical outcomes, rules considered, final
  canonical databases and observable streams between the two
  configurations on the drain workload itself, the power-network case
  study, seeded instances of the drain workload, and seeded random
  generated rule sets. The power network and the generated sets
  declare no keys, so the gate keys every table on its first column
  to make their sharded side really shard.

Metrics land in ``BENCH_partition.json`` (``--out``) for CI artifact
upload.
"""

from __future__ import annotations

import json
import time

from repro.config import ExecutionConfig
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.processor import RuleProcessor
from repro.workloads.generator import (
    GeneratorConfig,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
)
from repro.workloads.partitioned import partitioned_workload
from repro.workloads.powernet import power_network_workload

GATE_SCHEMA_VERSION = 2

GATE_PARTITIONS = 4

FLAT = ExecutionConfig()
SHARDED = ExecutionConfig(partitions=GATE_PARTITIONS)

MODES = {"flat": FLAT, "sharded": SHARDED}


def _keyed(database):
    """*database* with every table's first column declared its
    partition key (the flat configuration ignores the hints)."""
    for table in database.schema:
        database.declare_partition_key(table.name, table.column_names[0])
    return database


def _run_measured(ruleset, database, statements, config, **kwargs):
    """Run one session; return (comparable record, wall-clock seconds).

    The record holds everything the two configurations must agree on:
    outcome, the rules considered in order, observable stream, and the
    final canonical database.
    """
    processor = RuleProcessor(
        ruleset, database.copy(), config=config, **kwargs
    )
    started = time.perf_counter()
    for statement in statements:
        processor.execute_user(statement)
    result = processor.run()
    elapsed = time.perf_counter() - started
    record = {
        "outcome": result.outcome,
        "rules_considered": result.rules_considered,
        "observables": tuple(str(action) for action in result.observables),
        "final_database": processor.database.canonical(),
    }
    return record, elapsed


def _compare(records: dict, label: str) -> None:
    flat, sharded = records["flat"], records["sharded"]
    for key in ("outcome", "rules_considered", "final_database", "observables"):
        assert flat[key] == sharded[key], (
            f"{label}: {key} diverges between flat and sharded tables"
        )


def run_speedup_gate(
    min_speedup: float = 2.0, rows: int = 100_000, repeats: int = 2
) -> dict:
    """Wall-clock flat vs. sharded on the 10⁵-row drain workload.

    Best-of-*repeats* per mode damps timing outliers; the two runs must
    also agree exactly, so the speedup is never bought with a semantic
    shortcut.
    """
    seconds = {name: [] for name in MODES}
    records = {}
    for __ in range(repeats):
        for name, config in MODES.items():
            workload = partitioned_workload(rows=rows, seed=3)
            record, elapsed = _run_measured(
                workload.ruleset,
                workload.database,
                workload.drain_transition(),
                config,
                max_steps=5000,
            )
            records[name] = record
            seconds[name].append(elapsed)
    _compare(records, "drain")

    best = {name: min(times) for name, times in seconds.items()}
    speedup = best["flat"] / best["sharded"]
    return {
        "rows": rows,
        "partitions": GATE_PARTITIONS,
        "steps": len(records["flat"]["rules_considered"]),
        "flat_seconds": round(best["flat"], 4),
        "sharded_seconds": round(best["sharded"], 4),
        "speedup": round(speedup, 2),
        "equivalent": True,
    }


def run_powernet_equivalence_gate() -> dict:
    """The power-network case study agrees flat and sharded."""
    records = {}
    for name, config in MODES.items():
        workload = power_network_workload()
        records[name], __ = _run_measured(
            workload.ruleset,
            _keyed(workload.database),
            workload.overload_transition(),
            config,
            max_steps=500,
        )
    _compare(records, "powernet")
    return {"equivalent": True}


def run_seeded_drain_equivalence_gate(runs: int = 8) -> dict:
    """Seeded drain-workload instances agree flat and sharded."""
    checked = 0
    for seed in range(runs):
        records = {}
        for name, config in MODES.items():
            workload = partitioned_workload(
                rows=4000, seed=seed, hot_rows_per_region=20
            )
            records[name], __ = _run_measured(
                workload.ruleset,
                workload.database,
                workload.drain_transition(),
                config,
                max_steps=2000,
            )
        _compare(records, f"drain seed {seed}")
        checked += 1
    return {"runs": checked, "equivalent": True}


def run_generated_equivalence_gate(runs: int = 8) -> dict:
    """Seeded random rule sets agree flat and sharded."""
    generator_config = GeneratorConfig(
        n_tables=4,
        n_rules=8,
        p_cross_table=0.5,
        p_observable=0.2,
        rows_per_table=4,
        statements_per_transition=3,
    )
    checked = 0
    for seed in range(runs):
        ruleset = RandomRuleSetGenerator(
            generator_config, seed=1000 + seed
        ).generate()
        instances = RandomInstanceGenerator(generator_config)
        database = _keyed(
            instances.generate_database(ruleset.schema, seed=seed)
        )
        statements = instances.generate_transition(ruleset.schema, seed=seed)
        records = {}
        for name, config in MODES.items():
            try:
                records[name], __ = _run_measured(
                    ruleset, database, statements, config, max_steps=60
                )
            except RuleProcessingLimitExceeded:
                records[name] = {"outcome": "exhausted"}
        if records["flat"]["outcome"] != "exhausted":
            _compare(records, f"generated seed {seed}")
        else:
            assert records["sharded"]["outcome"] == "exhausted", (
                f"generated seed {seed}: only one configuration exhausted"
            )
        checked += 1
    return {"runs": checked, "equivalent": True}


def run_gate(
    min_speedup: float = 2.0, out_path: str | None = None
) -> dict:
    """The full partition gate; raises AssertionError on any regression."""
    speedup = run_speedup_gate(min_speedup=min_speedup)
    powernet = run_powernet_equivalence_gate()
    seeded = run_seeded_drain_equivalence_gate()
    generated = run_generated_equivalence_gate()

    payload = {
        "schema_version": GATE_SCHEMA_VERSION,
        "gate": {"min_speedup": min_speedup},
        "speedup": speedup,
        "powernet": powernet,
        "seeded_drain": seeded,
        "generated": generated,
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert speedup["speedup"] >= min_speedup, (
        f"sharded speedup {speedup['speedup']} below gate minimum "
        f"{min_speedup}"
    )
    return payload


def test_gate_speedup_and_equivalence():
    metrics = run_speedup_gate()
    assert metrics["equivalent"]
    assert metrics["speedup"] >= 2.0


def test_gate_powernet_equivalence():
    assert run_powernet_equivalence_gate()["equivalent"]


def test_gate_seeded_drain_equivalence():
    assert run_seeded_drain_equivalence_gate()["equivalent"]


def test_gate_generated_equivalence():
    assert run_generated_equivalence_gate()["equivalent"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Partitioned execution gate")
    parser.add_argument("--gate", action="store_true", help="run the gate")
    parser.add_argument(
        "--out",
        default="BENCH_partition.json",
        help="where to write the metrics JSON (default: BENCH_partition.json)",
    )
    parser.add_argument("--min-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)

    payload = run_gate(min_speedup=args.min_speedup, out_path=args.out)
    print(json.dumps(payload, indent=2))
    print(f"\ngate passed; metrics written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
