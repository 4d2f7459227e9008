"""Query-engine microbenchmarks and the planner regression gate.

Not a paper experiment — these keep the planned/indexed/compiled SELECT
executor's wins over the naive cross-product path visible. Reported:
per-workload wall clock for both executors, the planner's work counters
(plan/predicate cache hits, index builds and probes, hash-join probes),
and the speedup ratios.

Gate mode (``python benchmarks/bench_query_engine.py --gate``, also run
as pytest tests) runs the seeded workloads from
:mod:`repro.workloads.queries` through both executors and asserts:

* **equivalence** — byte-identical :class:`QueryResult`s (columns and
  rows, including row order) between ``planner=True`` and
  ``planner=False`` on every query;
* **join-heavy speedup** — the planner is at least ``--min-join-speedup``
  (default 5) times faster per execution on the join-heavy workload;
* **selective-filter speedup** — at least ``--min-filter-speedup``
  (default 2) times faster on the selective-filter workload.

The metrics are written to ``BENCH_query.json`` (``--out``) for CI
artifact upload.
"""

from __future__ import annotations

import json
import time

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine.query import DatabaseProvider, execute_select
from repro.workloads.queries import (
    join_heavy_workload,
    selective_filter_workload,
)

GATE_SCHEMA_VERSION = 1


def _run_workload(database, queries, planner: bool, repeats: int) -> tuple:
    """Execute every query *repeats* times; returns (results, seconds).

    ``results`` covers one pass (they are identical across passes); the
    wall clock covers all passes, so per-execution time is
    ``seconds / repeats``.
    """
    provider = DatabaseProvider(database)
    config = ExecutionConfig(planner=planner)
    results = []
    started = time.perf_counter()
    for pass_index in range(repeats):
        pass_results = [
            execute_select(provider, query, config=config)
            for query in queries
        ]
        if pass_index == 0:
            results = pass_results
    return results, time.perf_counter() - started


def _result_repr(results) -> str:
    return repr([(result.columns, result.rows) for result in results])


def run_workload_gate(
    name: str,
    workload,
    naive_repeats: int,
    planned_repeats: int,
) -> dict:
    """Run *workload* through both executors; assert byte-identical
    results and return the timing/counter metrics."""
    database, queries = workload()

    plan.clear_caches()
    plan.STATS.reset()
    naive_results, naive_seconds = _run_workload(
        database, queries, planner=False, repeats=naive_repeats
    )
    planned_results, planned_seconds = _run_workload(
        database, queries, planner=True, repeats=planned_repeats
    )

    assert _result_repr(naive_results) == _result_repr(planned_results), (
        f"{name}: planned results diverge from the naive executor"
    )

    naive_per_exec = naive_seconds / naive_repeats
    planned_per_exec = planned_seconds / planned_repeats
    return {
        "workload": name,
        "queries": len(queries),
        "result_rows": sum(len(result.rows) for result in naive_results),
        "naive_seconds_per_pass": round(naive_per_exec, 6),
        "planned_seconds_per_pass": round(planned_per_exec, 6),
        "speedup": round(naive_per_exec / max(1e-9, planned_per_exec), 2),
        "planner_stats": plan.STATS.to_dict(),
        "equivalent": True,
    }


def run_gate(
    min_join_speedup: float = 5.0,
    min_filter_speedup: float = 2.0,
    out_path: str | None = None,
) -> dict:
    """The full query-engine gate; raises AssertionError on regression."""
    join = run_workload_gate(
        "join_heavy", join_heavy_workload, naive_repeats=2, planned_repeats=20
    )
    selective = run_workload_gate(
        "selective_filter",
        selective_filter_workload,
        naive_repeats=3,
        planned_repeats=20,
    )

    payload = {
        "schema_version": GATE_SCHEMA_VERSION,
        "gate": {
            "min_join_speedup": min_join_speedup,
            "min_filter_speedup": min_filter_speedup,
        },
        "join_heavy": join,
        "selective_filter": selective,
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert join["speedup"] >= min_join_speedup, (
        f"join-heavy planner speedup {join['speedup']} "
        f"below gate minimum {min_join_speedup}"
    )
    assert selective["speedup"] >= min_filter_speedup, (
        f"selective-filter planner speedup {selective['speedup']} "
        f"below gate minimum {min_filter_speedup}"
    )
    return payload


def test_gate_join_heavy_equivalence_and_speedup():
    metrics = run_workload_gate(
        "join_heavy", join_heavy_workload, naive_repeats=1, planned_repeats=10
    )
    assert metrics["equivalent"]
    assert metrics["speedup"] >= 5.0


def test_gate_selective_filter_equivalence_and_speedup():
    metrics = run_workload_gate(
        "selective_filter",
        selective_filter_workload,
        naive_repeats=1,
        planned_repeats=10,
    )
    assert metrics["equivalent"]
    assert metrics["speedup"] >= 2.0


def test_gate_plan_cache_reuse():
    """Repeated executions plan once and hit the cache thereafter."""
    database, queries = join_heavy_workload()
    provider = DatabaseProvider(database)
    plan.clear_caches()
    plan.STATS.reset()
    for __ in range(5):
        for query in queries:
            execute_select(provider, query)
    assert plan.STATS.plans_built <= len(queries) * 2  # incl. subplans
    assert plan.STATS.plan_cache_hits >= len(queries) * 4
    assert plan.STATS.hash_join_probes > 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Query-engine planner regression gate"
    )
    parser.add_argument("--gate", action="store_true", help="run the gate")
    parser.add_argument(
        "--min-join-speedup",
        type=float,
        default=5.0,
        help="minimum planner speedup on the join-heavy workload",
    )
    parser.add_argument(
        "--min-filter-speedup",
        type=float,
        default=2.0,
        help="minimum planner speedup on the selective-filter workload",
    )
    parser.add_argument(
        "--out",
        default="BENCH_query.json",
        help="metrics output path (gate mode)",
    )
    args = parser.parse_args(argv)

    if not args.gate:
        parser.error("nothing to do: pass --gate (or run under pytest)")

    payload = run_gate(
        min_join_speedup=args.min_join_speedup,
        min_filter_speedup=args.min_filter_speedup,
        out_path=args.out,
    )
    print(json.dumps(payload, indent=2))
    print(f"\nquery-engine gate OK -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
