"""Per-layer metrics of a traced run, from its span tree and counters.

Layers are the program's modules; a span's layer is the prefix of its
name (``processor.consider`` → ``processor``). Time metrics are self
seconds per op: every span recorded under an op root maps to exactly
one time metric, and the op root's own self time is ``bench.other_s``,
so the time metrics of one run add up to its mean op wall
(``bench.op_wall_s``). Counts are per op; ratios are plain ratios, 0
when their denominator is.
"""

from __future__ import annotations

#: span name -> the per-op time metric its self time belongs to; a span
#: missing here counts towards ``<layer>.other_s``
SPAN_METRIC = {
    "bench.op": "bench.other_s",
    "lang.parse_rules": "lang.parse_s",
    "lang.parse_statement": "lang.parse_s",
    "analysis.analyze": "analysis.other_s",
    "analysis.partial": "analysis.other_s",
    "analysis.termination": "analysis.termination_s",
    "analysis.confluence": "analysis.confluence_s",
    "analysis.observable": "analysis.observable_s",
    "processor.ingest": "processor.ingest_s",
    "processor.trigger": "processor.trigger_s",
    "processor.consider": "processor.consider_s",
    "processor.commit": "processor.commit_s",
    "processor.fork": "processor.fork_s",
    "processor.state_key": "processor.state_key_s",
    "processor.run": "processor.run_s",
    "dml.execute": "dml.execute_s",
    "query.select": "query.select_s",
    "net_effect.fold": "net_effect.fold_s",
    "net_effect.canonical": "net_effect.canonical_s",
    "database.canonical": "database.canonical_s",
    "database.copy": "database.copy_s",
    "database.snapshot": "database.snapshot_s",
    "wal.append": "wal.append_s",
    "wal.commit": "wal.commit_s",
    "server.session_run": "server.session_s",
    "server.session_commit": "server.session_s",
    "explore": "explore.self_s",
}

_NONE = (0, 0.0, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _phase(tree: dict, root: str) -> dict[str, list[float]]:
    """Span name -> [count, total, self] summed over every path under the
    phase root *root* (the root itself included)."""
    by_name: dict[str, list[float]] = {}
    for path, (count, total, self_time) in tree.items():
        if path[0] != root:
            continue
        entry = by_name.setdefault(path[-1], [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += total
        entry[2] += self_time
    return by_name


def per_layer_metrics(
    tree: dict,
    counters: dict[str, float],
    ops: int,
    recovery_reports: list,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run: name -> (value, unit).

    *tree* is the merged span tree, *counters* the run's counter
    movement over the timed phase (hooks, workload counters and planner
    stats), *ops* the ops attempted, *recovery_reports* the
    :class:`~repro.engine.wal.RecoveryReport` of each timed recovery.
    """
    op = _phase(tree, "bench.op")
    per_op = max(ops, 1)

    def count(name: str) -> float:
        return op.get(name, _NONE)[0]

    def counter(name: str) -> float:
        return counters.get(name, 0)

    seconds = {name: 0.0 for name in SPAN_METRIC.values()}
    for name, (_, _, self_time) in op.items():
        metric = SPAN_METRIC.get(name, f"{name.split('.')[0]}.other_s")
        seconds[metric] = seconds.get(metric, 0.0) + self_time / per_op
    metrics = {name: (value, "s/op") for name, value in seconds.items()}
    metrics["bench.op_wall_s"] = (op.get("bench.op", _NONE)[1] / per_op, "s/op")

    setup = _phase(tree, "bench.setup")
    setups = max(setup.get("bench.setup", _NONE)[0], 1)
    parse = setup.get("lang.parse_rules", _NONE)[1] + setup.get("lang.parse_statement", _NONE)[1]
    load = setup.get("database.load", _NONE)[1]
    checkpoint = setup.get("wal.checkpoint", _NONE)[1]
    other = setup.get("bench.setup", _NONE)[1] - parse - load - checkpoint
    recover = _phase(tree, "bench.recover").get("wal.recover", _NONE)
    replay_rates = [
        _ratio(report.primitives_replayed, report.replay_seconds)
        for report in recovery_reports
    ]

    pairs = counter("analysis.pairs_judged")
    lemmas = counter("analysis.lemma_judgments")
    hits = counter("analysis.pair_memo_hits") + counter("analysis.lemma_memo_hits")
    checks = counter("processor.stats.trigger_checks")
    metrics.update(
        {
            "setup.parse_s": (parse / setups, "s"),
            "setup.load_s": (load / setups, "s"),
            "setup.other_s": (other / setups, "s"),
            "wal.checkpoint_s": (checkpoint / setups, "s"),
            "wal.recover_s": (_ratio(recover[1], recover[0]), "s"),
            "wal.replay_primitives_per_s": (
                _ratio(sum(replay_rates), len(replay_rates)), "1/s"
            ),
            "lang.statements_parsed": (count("lang.parse_statement") / per_op, "1/op"),
            "analysis.pairs_judged": (pairs / per_op, "1/op"),
            "analysis.lemma_judgments": (lemmas / per_op, "1/op"),
            "analysis.memo_hit_ratio": (_ratio(hits, pairs + lemmas + hits), "ratio"),
            "analysis.terminating_programs": (counter("analysis.terminating_programs"), "count"),
            "analysis.confluent_programs": (counter("analysis.confluent_programs"), "count"),
            "analysis.observably_deterministic_programs": (
                counter("analysis.observably_deterministic_programs"), "count"
            ),
            "processor.trigger_checks": (checks / per_op, "1/op"),
            "processor.touch_skip_ratio": (
                _ratio(counter("processor.stats.touch_skips"), checks), "ratio"
            ),
            "processor.considerations": (
                counter("processor.stats.considerations") / per_op, "1/op"
            ),
            "processor.useful_ratio": (
                _ratio(counter("processor.useful"), count("processor.consider")), "ratio"
            ),
            "processor.steps_per_op": (counter("processor.steps") / per_op, "1/op"),
            "query.selects_per_statement": (
                _ratio(count("query.select"), count("dml.execute")), "ratio"
            ),
            "plan.rows_scanned_per_op": (counter("plan.rows_scanned") / per_op, "1/op"),
            "plan.index_probes": (counter("plan.index_probes") / per_op, "1/op"),
            "plan.plan_cache_hit_ratio": (
                _ratio(
                    counter("plan.plan_cache_hits"),
                    counter("plan.plan_cache_hits") + counter("plan.plans_built"),
                ),
                "ratio",
            ),
            "net_effect.folds": (count("net_effect.fold") / per_op, "1/op"),
            "database.canonical_calls": (count("database.canonical") / per_op, "1/op"),
            "wal.syncs": (counter("wal.syncs") / per_op, "1/op"),
            "wal.bytes_written": (counter("wal.bytes_written") / per_op, "B/op"),
            "wal.bytes_per_user_byte": (
                _ratio(counter("wal.bytes_written"), counter("wal.user_bytes")), "ratio"
            ),
            "wal.fsyncs_per_commit": (
                _ratio(counter("wal.syncs"), counter("wal.commits")), "ratio"
            ),
            "group_commit.commits_per_batch": (
                _ratio(counter("wal.commits"), counter("group_commit.batches")), "ratio"
            ),
            "server.validate_s": (counter("server.validate_seconds") / per_op, "s/op"),
            "server.publish_s": (counter("server.publish_seconds") / per_op, "s/op"),
            "server.commit_wait_s": (
                counter("server.commit_wait_seconds") / per_op, "s/op"
            ),
            "server.conflicts": (counter("server.conflicts") / per_op, "1/op"),
            "server.retries": (counter("server.retries") / per_op, "1/op"),
            "explore.states": (counter("explore.states") / per_op, "1/op"),
            "explore.edges": (counter("explore.edges") / per_op, "1/op"),
            "explore.considers_per_edge": (
                _ratio(
                    counter("processor.stats.considerations") if counter("explore.edges") else 0,
                    counter("explore.edges"),
                ),
                "ratio",
            ),
        }
    )
    return metrics
