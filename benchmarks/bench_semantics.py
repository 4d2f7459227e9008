"""Declarative-semantics gate.

:mod:`repro.semantics` recomputes rule-program outcomes from the
Flesca/Greco-style per-stratum fixpoint reading — no processor, no
markers, no scheduler — and :mod:`repro.validate.crosscheck` holds
every execution mode to it. This gate pins three properties:

* **domain equality + cost** — on the stratified 10⁶-row domain
  workloads (:mod:`repro.workloads.iot`,
  :mod:`repro.workloads.fraud`), the declarative outcome equals the
  planned executor's final byte for byte, and computing it costs at
  most ``--max-ratio`` (default 5) times the planned session — the
  baseline must stay cheap enough to run routinely as an oracle.
  ``build_seconds`` (generating and loading the workload) is reported
  beside the two timings for information; no floor reads it;
* **mode sweep** — the differential contract holds with zero
  divergences across the execution-mode cross product on the
  registered small/medium workloads (powernet, the termination zoo,
  partitioned, streaming);
* **generated programs** — seeded
  :class:`~repro.workloads.generator.StratifiedProgramGenerator`
  programs are stratified, reach a unique ``explore()`` final, and the
  declarative outcome is that final.

Metrics land in ``BENCH_semantics.json`` (``--out``) for CI artifact
upload.
"""

from __future__ import annotations

import json
import time

from repro.config import ExecutionConfig
from repro.engine.database import Database
from repro.lang.parser import parse_statement
from repro.runtime.exec_graph import explore_ruleset
from repro.runtime.processor import RuleProcessor
from repro.semantics import classify_program, declarative_outcome
from repro.validate.crosscheck import (
    ALL_MODES,
    build_case,
    crosscheck_case,
)
from repro.workloads.fraud import fraud_workload
from repro.workloads.generator import GeneratorConfig, StratifiedProgramGenerator
from repro.workloads.iot import iot_workload

GATE_SCHEMA_VERSION = 1

#: declarative baseline may cost at most this multiple of the planned
#: executor on the stratified domain workloads
GATE_MAX_RATIO = 5.0

#: below this absolute declarative runtime the ratio is noise, not cost
#: (interpreter jitter dominates sub-second runs at small --rows)
RATIO_NOISE_FLOOR_SECONDS = 0.5

#: the small/medium registry workloads the mode sweep covers
SWEEP_CASES = (
    ("powernet", None),
    ("termination_zoo", None),
    ("partitioned", 4_000),
    ("streaming", 4_000),
)


def _timed_planned(workload) -> tuple[tuple, float]:
    """One planned serial in-memory session over the workload's batch."""
    database = workload.database.copy()
    processor = RuleProcessor(
        workload.ruleset,
        database,
        config=ExecutionConfig(matching="planned"),
        max_steps=100_000,
    )
    started = time.perf_counter()
    for statement in workload.ingest_transition():
        processor.execute_user(statement)
    processor.run()
    final = database.canonical()
    return final, time.perf_counter() - started


def _timed_declarative(workload) -> tuple[tuple, float, int]:
    started = time.perf_counter()
    outcome = declarative_outcome(
        workload.ruleset, workload.database, workload.ingest_transition()
    )
    elapsed = time.perf_counter() - started
    assert outcome.quiescent, (
        f"declarative iteration did not quiesce: {outcome.status}"
    )
    return outcome.final, elapsed, outcome.firings


def run_domain_gate(
    rows: int = 1_000_000, max_ratio: float = GATE_MAX_RATIO
) -> dict:
    """Declarative vs planned on the stratified domain workloads."""
    results = {}
    for name, build in (("iot", iot_workload), ("fraud", fraud_workload)):
        started = time.perf_counter()
        workload = build(rows=rows)
        build_seconds = time.perf_counter() - started
        classification = classify_program(
            workload.ruleset,
            certified_confluent=workload.certified_confluent,
        )
        assert classification.label == "stratified-confluent", (
            f"{name}: expected a stratified-confluent program, got "
            f"{classification.label}"
        )
        planned_final, planned_seconds = _timed_planned(workload)
        declarative_final, declarative_seconds, firings = _timed_declarative(
            workload
        )
        assert declarative_final == planned_final, (
            f"{name}: declarative outcome differs from the planned "
            "executor's final"
        )
        ratio = (
            declarative_seconds / planned_seconds
            if planned_seconds > 0
            else 1.0
        )
        results[name] = {
            "rows": rows,
            "classification": classification.label,
            "firings": firings,
            "build_seconds": round(build_seconds, 4),
            "planned_seconds": round(planned_seconds, 4),
            "declarative_seconds": round(declarative_seconds, 4),
            "ratio": round(ratio, 2),
            "equal": True,
        }
    return {"workloads": results, "max_ratio": max_ratio}


def run_mode_sweep(modes: tuple[str, ...] | None = None) -> dict:
    """The differential contract across the execution-mode product."""
    modes = modes if modes is not None else tuple(ALL_MODES)
    cases = {}
    divergences = 0
    for name, rows in SWEEP_CASES:
        case = build_case(name, rows=rows)
        report = crosscheck_case(case, modes)
        divergences += len(report.divergences)
        cases[name] = {
            "classification": report.classification.label,
            "declarative_status": report.declarative.status,
            "firings": report.declarative.firings,
            "modes": len(report.modes),
            "divergences": report.divergences,
            "exploration": report.exploration,
        }
    return {"cases": cases, "modes": len(modes), "divergences": divergences}


def run_generated_gate(runs: int = 10) -> dict:
    """Seeded stratified programs: declarative == the unique explore final."""
    checked = 0
    for seed in range(runs):
        generator = StratifiedProgramGenerator(
            GeneratorConfig(n_rules=6, p_condition=0.5, p_priority=0.2),
            n_layers=3,
        )
        ruleset = generator.generate(seed)
        classification = classify_program(ruleset)
        assert classification.stratified, (
            f"generated seed {seed}: program is not stratified"
        )
        database = Database(ruleset.schema)
        for table in ruleset.schema.table_names:
            columns = ruleset.schema.table(table).column_names
            database.load(
                table,
                [tuple(0 for _ in columns), tuple(1 for _ in columns)],
            )
        row = ", ".join("2" for _ in ruleset.schema.table("t0").column_names)
        statements = [
            f"insert into t0 values ({row})",
            "update t0 set c0 = 3",
        ]
        outcome = declarative_outcome(ruleset, database, statements)
        graph = explore_ruleset(
            ruleset,
            database,
            [parse_statement(s) for s in statements],
            max_states=2_000,
        )
        finals = set(graph.final_databases.values())
        assert len(finals) == 1, (
            f"generated seed {seed}: {len(finals)} distinct finals from a "
            "confluent-by-construction program"
        )
        assert outcome.final in finals, (
            f"generated seed {seed}: declarative outcome is not the "
            "reachable final"
        )
        checked += 1
    return {"runs": checked, "equal": True}


def run_gate(
    rows: int = 1_000_000,
    max_ratio: float = GATE_MAX_RATIO,
    out_path: str | None = None,
) -> dict:
    """The full semantics gate; raises AssertionError on any regression."""
    domain = run_domain_gate(rows=rows, max_ratio=max_ratio)
    sweep = run_mode_sweep()
    generated = run_generated_gate()

    payload = {
        "schema_version": GATE_SCHEMA_VERSION,
        "gate": {"rows": rows, "max_ratio": max_ratio},
        "domain": domain,
        "sweep": sweep,
        "generated": generated,
        "divergences": sweep["divergences"],
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert sweep["divergences"] == 0, (
        f"{sweep['divergences']} divergences in the mode sweep"
    )
    for name, metrics in domain["workloads"].items():
        if metrics["declarative_seconds"] > RATIO_NOISE_FLOOR_SECONDS:
            assert metrics["ratio"] <= max_ratio, (
                f"{name}: declarative baseline costs "
                f"{metrics['ratio']}x the planned executor "
                f"(gate maximum {max_ratio}x)"
            )
    return payload


def test_gate_domain_equality():
    metrics = run_domain_gate(rows=20_000)
    for name, workload in metrics["workloads"].items():
        assert workload["equal"], name
        assert workload["classification"] == "stratified-confluent"


def test_gate_mode_sweep():
    from repro.validate.crosscheck import QUICK_MODES

    metrics = run_mode_sweep(QUICK_MODES)
    assert metrics["divergences"] == 0, metrics


def test_gate_generated():
    assert run_generated_gate(runs=6)["equal"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Declarative-semantics gate")
    parser.add_argument("--gate", action="store_true", help="run the gate")
    parser.add_argument(
        "--out",
        default="BENCH_semantics.json",
        help="where to write the metrics JSON (default: BENCH_semantics.json)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=1_000_000,
        help="domain-workload scale (default 1,000,000)",
    )
    parser.add_argument("--max-ratio", type=float, default=GATE_MAX_RATIO)
    args = parser.parse_args(argv)

    payload = run_gate(
        rows=args.rows, max_ratio=args.max_ratio, out_path=args.out
    )
    print(json.dumps(payload, indent=2))
    print(f"\ngate passed; metrics written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
