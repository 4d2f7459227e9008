"""Substrate microbenchmarks and the runtime-substrate regression gate.

Not a paper experiment — these keep the performance of the layers the
experiments stand on visible (a regression here silently inflates every
E-number's wall time). Reported: DML and query throughput, rule
processing steps, and execution-graph exploration rate.

Gate mode (``python benchmarks/bench_substrate.py --gate``, also run as
pytest tests) holds the processor's maintained state (TR kept by Lemma
4.1, one pending slice per table and marker, copy-on-write forks,
chunk-shared logs) to the log refold
(:meth:`RuleProcessor.pending_net_effect`) on fixed seeded workloads
and asserts:

* **equivalence** — at every step, TR is exactly the active rules whose
  refolded pending transition meets ``Triggered-By``, and the pending
  transition the considered rule reads on its table is its refold;
* **triggering work** — refolding every active rule at every step, plus
  the considered rule, rescans at least ``--min-trigger-ratio``
  (default 5) times as many primitives as the slices fold on the same
  run, a 50-rule / 1k-op workload;
* **copy-on-write forks** — exploring the scalability scenario copies
  only ``stock``, the table its rules write, and never the 2,000-row
  ``ballast`` or ``orders``.

The metrics are written to ``BENCH_substrate.json`` (``--out``) for CI
artifact upload.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import pytest

from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.storage import TableData
from repro.lang.parser import parse_rules, parse_statement
from repro.rules.ruleset import RuleSet
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.schema.catalog import schema_from_spec

GATE_SCHEMA_VERSION = 2


@pytest.fixture
def schema():
    return schema_from_spec(
        {"orders": ["id", "item", "qty"], "stock": ["item", "on_hand"]}
    )


def test_substrate_insert_throughput(benchmark, schema):
    statement = parse_statement("insert into orders values (1, 2, 3)")

    def run():
        database = Database(schema)
        for __ in range(500):
            execute_statement(database, statement)
        return len(database.table("orders"))

    assert benchmark(run) == 500


def test_substrate_update_scan(benchmark, schema):
    database = Database(schema)
    database.load("stock", [(item, item % 10) for item in range(300)])
    # Filter on the immutable key so repeated benchmark iterations keep
    # matching the same row set.
    statement = parse_statement(
        "update stock set on_hand = on_hand + 1 where item < 150"
    )

    def run():
        return execute_statement(database, statement).affected

    assert benchmark(run) == 150


def test_substrate_join_query(benchmark, schema):
    database = Database(schema)
    database.load("orders", [(i, i % 20, 1) for i in range(100)])
    database.load("stock", [(item, 5) for item in range(20)])
    statement = parse_statement(
        "select o.id, s.on_hand from orders o, stock s "
        "where o.item = s.item and s.on_hand > 0"
    )

    def run():
        return execute_statement(database, statement).query_result

    assert len(benchmark(run).rows) == 100


def test_substrate_group_by_query(benchmark, schema):
    database = Database(schema)
    database.load("orders", [(i, i % 10, i % 3) for i in range(200)])
    statement = parse_statement(
        "select item, count(*), sum(qty) from orders group by item"
    )

    def run():
        return execute_statement(database, statement).query_result

    assert len(benchmark(run).rows) == 10


def test_substrate_rule_processing(benchmark, schema):
    source = """
    create rule reserve on orders when inserted
    then update stock set on_hand = on_hand - 1
         where item in (select item from inserted)
    precedes refill

    create rule refill on stock when updated(on_hand)
    if exists (select * from new_updated where on_hand < 1)
    then update stock set on_hand = on_hand + 10 where on_hand < 1
    """
    ruleset = RuleSet.parse(source, schema)

    def run():
        database = Database(schema)
        database.load("stock", [(item, 1) for item in range(5)])
        processor = RuleProcessor(ruleset, database)
        for order in range(10):
            processor.execute_user(
                f"insert into orders values ({order}, {order % 5}, 1)"
            )
        return len(processor.run().steps)

    assert benchmark(run) > 0


def test_substrate_exploration_rate(benchmark, schema):
    source = """
    create rule a on orders when inserted then update stock set on_hand = 1
    create rule b on orders when inserted then update stock set on_hand = 2
    create rule c on orders when inserted then update stock set on_hand = 3
    """
    ruleset = RuleSet.parse(source, schema)

    def run():
        database = Database(schema)
        database.load("stock", [(0, 0)])
        processor = RuleProcessor(ruleset, database)
        processor.execute_user("insert into orders values (1, 0, 1)")
        return explore(processor).state_count

    assert benchmark(run) > 5


# ======================================================================
# Gate mode: the maintained substrate against the log refold
# ======================================================================


def _triggering_workload(n_rules: int = 50):
    """A 50-rule workload whose processing loop exposes triggering cost.

    ``feed`` takes the bulk user transition; most rules are *spectators*
    on feed-family tables (``when deleted`` — never actually triggered,
    but a refold rescans the full log suffix for each of them on every
    loop iteration to find that out). A small countdown cascade on
    ``work`` keeps the processing loop iterating.
    """
    spec = {
        "feed": ["id", "v"],
        "work": ["id", "n"],
        "sink": ["id", "n"],
    }
    for t in range(10):
        spec[f"t{t}"] = ["id", "v"]
    schema = schema_from_spec(spec)

    rules = [
        # The cascade: counts work.n down to zero, one step per
        # consideration, logging each step into sink.
        "create rule step on work when updated(n), inserted "
        "if exists (select * from work where n > 0) "
        "then update work set n = n - 1 where n > 0;\n"
        "     insert into sink (select id, n from new_updated)",
    ]
    for index in range(n_rules - 1):
        table = ("feed", f"t{index % 10}")[index % 2]
        rules.append(
            f"create rule spectator_{index} on {table} when deleted "
            f"then insert into sink (select id, 0 from deleted)"
        )
    ruleset = RuleSet.parse("\n\n".join(rules), schema)
    return schema, ruleset


def run_checked(processor: RuleProcessor) -> dict:
    """Process rules to quiescence as :meth:`RuleProcessor.run` does,
    holding the maintained state to the log refold at every step.

    Before each step every active rule's pending transition is refolded
    and TR must be exactly the rules whose refold meets
    ``Triggered-By``; the considered rule is refolded once more, and the
    slice it reads on its table must equal that refold. Returns the
    steps, the refold checks made and the seconds spent in the
    processor's own calls, which exclude the refolds.
    """
    ruleset = processor.ruleset
    columns = {table.name: table.column_names for table in ruleset.schema}
    steps = []
    refold_checks = 0
    seconds = 0.0
    while True:
        started = time.perf_counter()
        triggered = processor.triggered_rules()
        eligible = ruleset.choose(triggered)
        seconds += time.perf_counter() - started
        refolded = tuple(
            rule.name
            for rule in ruleset
            if ruleset.is_active(rule.name)
            and processor.pending_net_effect(rule.name).operations(columns)
            & rule.triggered_by
        )
        refold_checks += len(ruleset.active_names)
        assert triggered == refolded, (
            f"TR {triggered} diverges from the refold {refolded}"
        )
        if not eligible:
            processor.mark_assertion_point()
            return {
                "steps": steps,
                "refold_checks": refold_checks,
                "seconds": seconds,
            }
        assert len(steps) < processor.max_steps
        chosen = processor.strategy.choose(eligible)
        rule = ruleset.rule(chosen)
        refold = processor.pending_net_effect(chosen).table(rule.table)
        # the slice consider() reads: (rule table, marker)
        pending = processor._slices[rule.table, processor.markers[chosen]]
        assert pending.net.table(rule.table) == refold, (
            f"{chosen}'s pending slice diverges from its refold"
        )
        started = time.perf_counter()
        steps.append(processor.consider(chosen, eligible=eligible))
        seconds += time.perf_counter() - started


def run_triggering_gate(n_rules: int = 50, n_ops: int = 1000) -> dict:
    """Run the triggering workload checked against the refold and return
    the work counters: primitives the refold rescans against the
    primitives the slices fold, on the same run."""
    schema, ruleset = _triggering_workload(n_rules)
    database = Database(schema)
    database.load("work", [(1, 30)])
    processor = RuleProcessor(ruleset, database, max_steps=50_000)
    for op in range(n_ops - 1):
        processor.execute_user(f"insert into feed values ({op}, {op % 7})")
    processor.execute_user("insert into work values (2, 30)")
    started = time.perf_counter()
    run = run_checked(processor)
    elapsed = time.perf_counter() - started

    stats = processor.stats
    scanned = stats.primitives_scanned
    folded = stats.primitives_folded
    steps = len(run["steps"])
    return {
        "n_rules": n_rules,
        "n_ops": n_ops,
        "steps": steps,
        "primitives_rescanned_by_refold": scanned,
        "primitives_folded": folded,
        "triggering_work_ratio": round(scanned / max(1, folded), 2),
        "refold_checks": run["refold_checks"],
        "trigger_checks": stats.trigger_checks,
        "touch_skips": stats.touch_skips,
        "processor_seconds": round(run["seconds"], 4),
        "refold_seconds": round(elapsed - run["seconds"], 4),
        "processor_steps_per_second": round(
            steps / max(1e-9, run["seconds"]), 1
        ),
        "equivalent": True,
    }


def _exploration_scenario() -> RuleProcessor:
    """The E10-style scalability scenario for ``explore()``.

    Branching comes from four independent unordered rules, which write
    only ``stock``; a 2000-row ``ballast`` table no rule touches and a
    long user-transition prefix in the log are what an eager fork would
    recopy.
    """
    schema = schema_from_spec(
        {
            "orders": ["id", "item", "qty"],
            "stock": ["item", "on_hand"],
            "ballast": ["id", "v"],
        }
    )
    source = """
    create rule a on orders when inserted then update stock set on_hand = 1 where item = 0
    create rule b on orders when inserted then update stock set on_hand = 2 where item = 1
    create rule c on orders when inserted then update stock set on_hand = 3 where item = 2
    create rule d on orders when inserted then update stock set on_hand = 4 where item = 3
    """
    ruleset = RuleSet.parse(source, schema)
    database = Database(schema)
    database.load("stock", [(item, 0) for item in range(8)])
    database.load("ballast", [(i, i % 13) for i in range(2000)])
    processor = RuleProcessor(ruleset, database)
    for op in range(200):
        processor.execute_user(
            f"insert into ballast values ({10_000 + op}, {op % 13})"
        )
    processor.run()  # quiesce the prefix: ballast writes trigger nothing
    processor.execute_user("insert into orders values (1, 0, 1)")
    return processor


def run_explore_gate() -> dict:
    """Explore the scalability scenario, counting the table copies its
    forks make (a copy is the first write to a table still shared with
    the fork's parent, :meth:`TableData._own`)."""
    processor = _exploration_scenario()
    copies: Counter = Counter()
    own = TableData._own

    def counting_own(table: TableData) -> None:
        if table._shared:
            copies[table.name] += 1
        own(table)

    forks_before = processor.stats.forks
    TableData._own = counting_own
    try:
        started = time.perf_counter()
        graph = explore(processor)
        elapsed = time.perf_counter() - started
    finally:
        TableData._own = own
    forks = processor.stats.forks - forks_before

    assert not graph.truncated
    assert set(copies) == {"stock"}, (
        f"explore() copied {dict(copies)}; only stock is written"
    )
    assert copies["stock"] <= forks, "a fork copied stock more than once"
    return {
        "states": graph.state_count,
        "paths_to_final": graph.paths_to_final(),
        "forks": forks,
        "table_copies": dict(copies),
        "explore_seconds": round(elapsed, 4),
        "forks_per_second": round(forks / max(1e-9, elapsed), 1),
        "states_per_second": round(
            graph.state_count / max(1e-9, elapsed), 1
        ),
    }


def run_sampled_equivalence_gate(runs: int = 8) -> dict:
    """Random-order runs of the triggering workload, each checked
    against the refold at every step."""
    schema, ruleset = _triggering_workload(n_rules=12)
    for seed in range(runs):
        database = Database(schema)
        database.load("work", [(1, 6)])
        processor = RuleProcessor(
            ruleset, database, strategy=RandomStrategy(seed)
        )
        for op in range(40):
            processor.execute_user(f"insert into feed values ({op}, {op % 5})")
        processor.execute_user("delete from feed where v = 3")
        run_checked(processor)
    return {"sampled_runs": runs, "equivalent": True}


def run_gate(
    min_trigger_ratio: float = 5.0, out_path: str | None = None
) -> dict:
    """The full substrate gate; raises AssertionError on any regression."""
    triggering = run_triggering_gate()
    exploration = run_explore_gate()
    sampled = run_sampled_equivalence_gate()

    payload = {
        "schema_version": GATE_SCHEMA_VERSION,
        "gate": {
            "min_trigger_ratio": min_trigger_ratio,
            "explore_copies_only": ["stock"],
        },
        "triggering": triggering,
        "exploration": exploration,
        "sampled_equivalence": sampled,
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert triggering["triggering_work_ratio"] >= min_trigger_ratio, (
        f"triggering work ratio {triggering['triggering_work_ratio']} "
        f"below gate minimum {min_trigger_ratio}"
    )
    return payload


def test_gate_triggering_equivalence_and_work_ratio():
    metrics = run_triggering_gate()
    assert metrics["equivalent"]
    assert metrics["triggering_work_ratio"] >= 5.0


def test_gate_exploration_copies_only_the_written_table():
    assert set(run_explore_gate()["table_copies"]) == {"stock"}


def test_gate_sampled_equivalence():
    assert run_sampled_equivalence_gate()["equivalent"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Runtime-substrate regression gate"
    )
    parser.add_argument("--gate", action="store_true", help="run the gate")
    parser.add_argument(
        "--out",
        default="BENCH_substrate.json",
        help="where to write the metrics JSON (default: BENCH_substrate.json)",
    )
    parser.add_argument("--min-trigger-ratio", type=float, default=5.0)
    args = parser.parse_args(argv)

    payload = run_gate(
        min_trigger_ratio=args.min_trigger_ratio, out_path=args.out
    )
    print(json.dumps(payload, indent=2))
    print(f"\ngate passed; metrics written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
