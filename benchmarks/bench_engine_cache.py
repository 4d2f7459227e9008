"""Engine memo effectiveness: repair loops and incremental edits.

The acceptance claim for the shared pairwise-analysis engine: across a
``repair_confluence`` run, the memoized engine performs at least 5×
fewer Definition 6.5 pair judgments than the cold path (which, like the
seed implementation, re-judges every unordered pair on every round),
while producing identical final verdicts and identical action logs.

A second scenario measures the incremental-edit path: after a one-rule
edit via ``replace_ruleset``, only the pair verdicts whose dependency
footprint touches the edited rule are recomputed.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.analyzer import RuleAnalyzer, _confluence_to_dict
from repro.analysis.engine import AnalysisEngine
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.workloads.applications import inventory_application

#: the shipped inventory program, found from this file, not the cwd
INVENTORY_RULES = (
    Path(__file__).resolve().parents[1] / "examples" / "inventory.rules"
)


def _repair(analyzer: RuleAnalyzer):
    analyzer.certify_termination("refill_stock")
    final, actions = analyzer.repair_confluence()
    return final, actions


def run_repair_cold_vs_warm():
    """The E5 inventory repair loop, cold (seed behavior) vs memoized."""
    app = inventory_application()
    warm = RuleAnalyzer(app.ruleset.subset(app.ruleset.names))
    warm_final, warm_actions = _repair(warm)

    app2 = inventory_application()
    cold_engine = AnalysisEngine(
        app2.ruleset.subset(app2.ruleset.names), memoize=False
    )
    cold = RuleAnalyzer(cold_engine.ruleset, engine=cold_engine)
    cold_final, cold_actions = _repair(cold)

    return {
        "warm_final": warm_final,
        "warm_actions": warm_actions,
        "warm_judged": warm.engine.stats.pairs_judged,
        "warm_hits": warm.engine.stats.pair_memo_hits,
        "cold_final": cold_final,
        "cold_actions": cold_actions,
        "cold_judged": cold.engine.stats.pairs_judged,
    }


def test_engine_cache_inventory_repair_identical(benchmark, report):
    """On the small (5-rule, heavily triggering) inventory app the memo
    already halves the judgments; identical verdicts and action log."""
    result = benchmark(run_repair_cold_vs_warm)
    speedup = result["cold_judged"] / max(1, result["warm_judged"])
    report(
        f"[cache] inventory repair pair judgments: "
        f"cold={result['cold_judged']} warm={result['warm_judged']} "
        f"({speedup:.1f}x fewer)",
        f"[cache] warm memo hits: {result['warm_hits']}",
    )
    # Identical final verdicts and action logs...
    assert result["warm_actions"] == result["cold_actions"]
    assert _confluence_to_dict(result["warm_final"]) == _confluence_to_dict(
        result["cold_final"]
    )
    # ...with at least 2x fewer pair judgments even at this tiny scale
    # (the triggering chains make most verdicts genuinely
    # priority-dependent, so invalidation is legitimately broad here).
    assert result["cold_judged"] >= 2 * result["warm_judged"]


def _wide_ruleset():
    """A larger synthetic application: clusters of rules racing on
    shared columns, so the repair loop runs many rounds over many
    unordered pairs."""
    tables = {f"t{i}": ["id", "v"] for i in range(6)}
    tables["src"] = ["id", "v"]
    schema = schema_from_spec(tables)
    rules = []
    for index in range(12):
        target = f"t{index % 6}"
        rules.append(
            f"create rule r{index:02d} on src when inserted\n"
            f"then update {target} set v = {index}"
        )
    return RuleSet.parse("\n\n".join(rules), schema)


def test_engine_cache_wide_repair_loop(benchmark, report):
    def run():
        warm = RuleAnalyzer(_wide_ruleset())
        warm_final, warm_actions = warm.repair_confluence(max_rounds=200)

        cold_engine = AnalysisEngine(_wide_ruleset(), memoize=False)
        cold = RuleAnalyzer(cold_engine.ruleset, engine=cold_engine)
        cold_final, cold_actions = cold.repair_confluence(max_rounds=200)
        return warm, warm_final, warm_actions, cold, cold_final, cold_actions

    warm, warm_final, warm_actions, cold, cold_final, cold_actions = (
        benchmark(run)
    )
    warm_judged = warm.engine.stats.pairs_judged
    cold_judged = cold.engine.stats.pairs_judged
    report(
        f"[cache] wide repair ({len(warm_actions)} rounds) judgments: "
        f"cold={cold_judged} warm={warm_judged} "
        f"({cold_judged / max(1, warm_judged):.1f}x fewer)"
    )
    assert warm_actions == cold_actions
    assert _confluence_to_dict(warm_final) == _confluence_to_dict(cold_final)
    assert cold_judged >= 5 * warm_judged


def test_pair_pruning_refinement_reduction(benchmark, report):
    """The attribute-level dataflow tier strictly reduces noncommutative
    pairs on workloads with existence-only reads.

    ``AnalysisReport.to_dict()["stats"]["pair_pruning"]`` carries the
    per-tier counts for every analysis run; this benchmark reports the
    refined-vs-table-level reduction on the shipped inventory example
    and on a synthetic watcher/bumper workload where half the rules only
    existence-check columns the other half updates.
    """
    tables = {f"t{i}": ["id", "v", "w"] for i in range(4)}
    tables["src"] = ["id", "v", "w"]
    schema = schema_from_spec(tables)
    rules = []
    for index in range(4):
        # Watchers existence-check rows of t{i} by id; the SELECT *
        # coarsely reads v too.
        rules.append(
            f"create rule watch{index} on src when inserted\n"
            f"if exists (select * from t{index} where id = {index})\n"
            f"then update src set w = {index} where id = {index}"
        )
        # Bumpers update the column the watchers never value-read.
        rules.append(
            f"create rule bump{index} on src when inserted\n"
            f"then update t{index} set v = {index}"
        )

    def run():
        synthetic = RuleAnalyzer(
            RuleSet.parse("\n\n".join(rules), schema)
        ).analyze()
        inventory_source = INVENTORY_RULES.read_text()
        inventory_schema = schema_from_spec(
            {
                "orders": ["id", "item"],
                "stock": ["item", "on_hand"],
                "backorders": ["item", "missing"],
                "audit": ["item", "event"],
            }
        )
        inventory = RuleAnalyzer(
            RuleSet.parse(inventory_source, inventory_schema)
        ).analyze()
        return (
            synthetic.to_dict()["stats"]["pair_pruning"],
            inventory.to_dict()["stats"]["pair_pruning"],
        )

    synthetic, inventory = benchmark(run)
    for label, counts in (("synthetic", synthetic), ("inventory", inventory)):
        report(
            f"[pruning] {label}: {counts['total_pairs']} pairs, "
            f"noncommutative table={counts['noncommutative_table']} "
            f"column={counts['noncommutative_column']} "
            f"dataflow={counts['noncommutative_dataflow']} "
            f"({counts['noncommutative_table']} -> "
            f"{counts['noncommutative_dataflow']}, "
            f"{counts['noncommutative_table'] - counts['noncommutative_dataflow']} pruned)"
        )
    for counts in (synthetic, inventory):
        # The tiers only ever prune...
        assert (
            counts["noncommutative_dataflow"]
            <= counts["noncommutative_column"]
            <= counts["noncommutative_table"]
            <= counts["total_pairs"]
        )
        # ...and on these workloads the refinement strictly helps.
        assert (
            counts["noncommutative_dataflow"]
            < counts["noncommutative_table"]
        )


def test_engine_cache_incremental_edit(benchmark, report):
    """Editing one rule re-judges only the pairs that touch it.

    The edit changes a literal in one rule's action, leaving its
    ``Performs``/``Triggers`` footprint unchanged — so exactly the n-1
    pairs involving the edited rule are re-judged, out of C(n, 2).
    """
    n = 14
    tables = {f"t{i}": ["id", "v"] for i in range(7)}
    tables["src"] = ["id", "v"]
    schema = schema_from_spec(tables)
    source = "\n\n".join(
        f"create rule r{index:02d} on src when inserted\n"
        f"then update t{index % 7} set v = {index}"
        for index in range(n)
    )

    def run():
        analyzer = RuleAnalyzer(RuleSet.parse(source, schema))
        analyzer.analyze_confluence()
        cold_total = analyzer.engine.stats.pairs_judged

        edited = source.replace("set v = 0\n", "set v = 99\n")
        changed = analyzer.replace_ruleset(RuleSet.parse(edited, schema))
        analyzer.analyze_confluence()
        after_edit = analyzer.engine.stats.pairs_judged - cold_total
        return cold_total, after_edit, changed, analyzer

    cold_total, after_edit, changed, analyzer = benchmark(run)
    report(
        f"[cache] incremental edit: cold pass judged {cold_total} pairs, "
        f"re-analysis after a 1-rule edit judged {after_edit} "
        f"({cold_total / max(1, after_edit):.1f}x fewer)"
    )
    assert changed == frozenset({"r00"})
    assert cold_total == n * (n - 1) // 2
    assert after_edit == n - 1
    # Verdicts match a from-scratch analyzer on the edited rule set.
    edited = source.replace("set v = 0\n", "set v = 99\n")
    truth = RuleAnalyzer(
        RuleSet.parse(edited, schema)
    ).analyze_confluence()
    assert _confluence_to_dict(analyzer.analyze_confluence()) == (
        _confluence_to_dict(truth)
    )
