"""The five workloads of the end-to-end benchmark.

Each workload class builds everything it needs in ``__init__`` (the
set-up the harness times), runs one operation per :meth:`op` call (the
latency the harness times), keeps what its output checks need in
:meth:`record` (outside the op timer), and checks the outputs in
:meth:`check` after the timed phase. Inputs come only from the seed:
every workload draws its operation inputs from a seeded pool built
during set-up and cycles through the pool when a run outlasts it.

Sizes are per *scale*: ``full`` is what the benchmark measures,
``smoke`` is a seconds-long version for the smoke test.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

from repro.analysis.analyzer import AnalysisReport, RuleAnalyzer
from repro.config import ExecutionConfig, ServerOptions
from repro.engine.wal import WalWriter
from repro.rules.ruleset import RuleSet
from repro.runtime import exec_graph
from repro.runtime.processor import RuleProcessor
from repro.runtime.server import RuleServer
from repro.semantics.declarative import declarative_outcome
from repro.validate.faults import DeviceLatency
from repro.workloads.generator import GeneratorConfig, RandomRuleSetGenerator
from repro.workloads.iot import iot_workload
from repro.workloads.powernet import scaled_power_network_workload
from repro.workloads.streaming import streaming_workload


def _rng(workload: str, seed: int) -> random.Random:
    """The op-input generator of one workload (string seeds are stable)."""
    return random.Random(f"{workload}:{seed}")


def _rows(database, table: str) -> list[tuple]:
    return [values for _, values in database.table(table).items()]


class Workload:
    """Shared defaults; subclasses define the workload."""

    name = ""
    #: closed-loop client threads driving :meth:`op`
    clients = 1
    #: the WAL a run leaves behind (None for in-memory workloads)
    log_path: str | None = None
    #: how the workload makes commits durable
    flush_policy = "none (in memory)"

    def op(self, client: int, index: int):
        raise NotImplementedError

    def record(self, client: int, index: int, output) -> None:
        """Keep what the checks need from one op (outside the op timer)."""

    def finish(self) -> None:
        """End the timed phase: stop background work, flush logs."""

    def counters(self) -> dict[str, float]:
        """Cumulative work counters; the harness diffs them over the run."""
        return {}

    def check(self, recovered) -> tuple[set[int], list[str]]:
        """Output checks: (indices of failed ops, messages). An index of
        -1 marks a failure of the run's final state, which fails every op."""
        return set(), []

    def close(self) -> None:
        """Release the workload (files, threads)."""


# ----------------------------------------------------------------------
# iot_ingest
# ----------------------------------------------------------------------


class IotIngest(Workload):
    """256-row INSERT → run() → commit() on the 48-rule iot cascade."""

    name = "iot_ingest"
    flush_policy = "WalWriter sync=commit: one fsync per commit on a file in the checkout"
    SIZES = {
        "full": {"rows": 200_000, "regions": 16, "batch_rows": 256, "pool": 192},
        "smoke": {"rows": 4_000, "regions": 4, "batch_rows": 64, "pool": 6},
    }

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.sizes = sizes = dict(self.SIZES[scale])
        self.workload = iot_workload(
            rows=sizes["rows"], regions=sizes["regions"], batch_rows=1, seed=seed
        )
        regions = sizes["regions"]
        devices = self.workload.devices
        rng = _rng(self.name, seed)
        self.pool: list[str] = []
        #: per pool batch: the regions holding a reading > 950
        self.alerting: list[frozenset[int]] = []
        #: per pool batch: the inserted rows, for bytes-per-user-byte
        self.batch_rows: list[list[tuple]] = []
        next_id = sizes["rows"]
        for _ in range(sizes["pool"]):
            rows = []
            for _ in range(sizes["batch_rows"]):
                device = rng.randrange(devices)
                rows.append((next_id, device, device % regions, rng.randint(1, 1000)))
                next_id += 1
            self.batch_rows.append(rows)
            self.alerting.append(frozenset(r[2] for r in rows if r[3] > 950))
            self.pool.append(
                "insert into readings values "
                + ", ".join(f"({a}, {b}, {c}, {d})" for a, b, c, d in rows)
            )
        self.log_path = os.path.join(workdir, f"{self.name}.wal")
        self.schema = self.workload.schema
        self.writer = WalWriter(self.log_path, schema=self.schema, sync="commit")
        self.processor = RuleProcessor(
            self.workload.ruleset,
            self.workload.database,
            config=ExecutionConfig(wal=self.writer),
        )
        self.committed: list[int] = []
        self.quiescent_failures: set[int] = set()

    def op(self, client: int, index: int):
        processor = self.processor
        processor.execute_user(self.pool[index % len(self.pool)])
        result = processor.run()
        processor.commit()
        return result

    def record(self, client: int, index: int, output) -> None:
        self.committed.append(index % len(self.pool))
        if output.outcome != "quiescent":
            self.quiescent_failures.add(index)

    def finish(self) -> None:
        self.processor.close()

    def counters(self) -> dict[str, float]:
        stats = self.writer.stats
        return {
            "wal.syncs": stats.syncs,
            "wal.bytes_written": stats.bytes_written,
            "wal.commits": len(self.committed),
            "wal.user_bytes": sum(
                len(json.dumps(self.batch_rows[i])) for i in self.committed
            ),
        }

    def check(self, recovered) -> tuple[set[int], list[str]]:
        failed = set(self.quiescent_failures)
        messages = [f"op {i}: not quiescent" for i in sorted(failed)]
        database = self.processor.database
        if recovered.canonical() != database.canonical():
            failed.add(-1)
            messages.append("recovered WAL differs from the live final state")
        alerts_by_region = Counter()
        for batch in self.committed:
            alerts_by_region.update(self.alerting[batch])
        for device, region, alerts, _ in _rows(database, "device_status"):
            if alerts != 1 + alerts_by_region[region]:
                failed.add(-1)
                messages.append(
                    f"device {device}: alerts {alerts}, expected "
                    f"{1 + alerts_by_region[region]}"
                )
        for region, degraded, severity in _rows(database, "region_health"):
            expected = (1, 2) if alerts_by_region[region] else (0, 0)
            if (degraded, severity) != expected:
                failed.add(-1)
                messages.append(f"region {region}: health {(degraded, severity)}")
        for region, directive in _rows(database, "ops_queue"):
            if directive != (7 if alerts_by_region[region] else 0):
                failed.add(-1)
                messages.append(f"region {region}: directive {directive}")
        return failed, messages

    def close(self) -> None:
        self.processor.close()
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


# ----------------------------------------------------------------------
# powernet_design
# ----------------------------------------------------------------------


def _overload(nodes: int, node: int) -> list[str]:
    """The case study's overload_transition() aimed at *node*: raise its
    demand and the load of the ring branch feeding it, both by 3."""
    branch = nodes if node == 1 else nodes + node - 1
    return [
        f"update node set demand = demand + 3 where id = {node}",
        f"update branch set load = load + 3 where id = {branch}",
    ]


class PowernetDesign(Workload):
    """Overload transitions on the Section 5 power network, in memory."""

    name = "powernet_design"
    SIZES = {
        "full": {"nodes": 200, "pool": 512, "checked_ops": 20},
        "smoke": {"nodes": 30, "pool": 8, "checked_ops": 4},
    }

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.sizes = sizes = dict(self.SIZES[scale])
        nodes = sizes["nodes"]
        self.workload = scaled_power_network_workload(nodes)
        rng = _rng(self.name, seed)
        self.pool = [
            _overload(nodes, rng.randint(1, nodes)) for _ in range(sizes["pool"])
        ]
        self.processor = RuleProcessor(self.workload.ruleset, self.workload.database)
        self.not_quiescent: set[int] = set()
        self.ops_made = 0
        #: (ops covered, COW copy of the state after them)
        self.checkpoint = None

    def op(self, client: int, index: int):
        processor = self.processor
        for statement in self.pool[index % len(self.pool)]:
            processor.execute_user(statement)
        result = processor.run()
        processor.commit()
        return result

    def record(self, client: int, index: int, output) -> None:
        self.ops_made = index + 1
        if output.outcome != "quiescent":
            self.not_quiescent.add(index)
        if self.ops_made == self.sizes["checked_ops"]:
            self.checkpoint = (self.ops_made, self.processor.database.copy())

    def finish(self) -> None:
        if self.checkpoint is None:
            # A run shorter than checked_ops checks every op it made.
            self.checkpoint = (self.ops_made, self.processor.database.copy())

    def check(self, recovered) -> tuple[set[int], list[str]]:
        failed = set(self.not_quiescent)
        messages = [f"op {i}: not quiescent" for i in sorted(failed)]
        ops, state = self.checkpoint
        reference = scaled_power_network_workload(self.sizes["nodes"])
        naive = RuleProcessor(
            reference.ruleset,
            reference.database,
            config=ExecutionConfig(matching="naive", planner=False),
        )
        for index in range(ops):
            for statement in self.pool[index % len(self.pool)]:
                naive.execute_user(statement)
            if naive.run().outcome != "quiescent":
                messages.append(f"reference op {index}: not quiescent")
            naive.commit()
        if naive.database.canonical() != state.canonical():
            failed.add(-1)
            messages.append(
                f"state after {ops} ops differs from the naive reference replay"
            )
        return failed, messages


# ----------------------------------------------------------------------
# stream_server
# ----------------------------------------------------------------------


def _insert_rows(statement) -> list[tuple]:
    return [tuple(value.value for value in row) for row in statement.rows]


class StreamServer(Workload):
    """Pre-parsed 100-row batches through the MVCC server from 2 clients."""

    name = "stream_server"
    clients = 2
    #: the streaming workload's hot row: every 13th batch bumps totals
    HOT_EVERY = 13
    SIZES = {
        "full": {"pool_batches": 320, "batch_rows": 100, "fsync_ms": 2.0},
        "smoke": {"pool_batches": 32, "batch_rows": 20, "fsync_ms": 2.0},
    }

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.sizes = sizes = dict(self.SIZES[scale])
        options = ServerOptions()
        self.flush_policy = (
            f"group commit (max_batch={options.max_batch}, "
            f"max_delay={options.max_delay * 1000:g} ms), one fsync per batch "
            f"plus a simulated {sizes['fsync_ms']:g} ms device fsync"
        )
        self.workload = streaming_workload(
            rows=sizes["pool_batches"] * sizes["batch_rows"],
            batch_rows=sizes["batch_rows"],
            seed=seed,
            hot_every=self.HOT_EVERY,
        )
        self.schema = self.workload.schema
        self.log_path = os.path.join(workdir, f"{self.name}.wal")
        writer = WalWriter(
            self.log_path,
            schema=self.schema,
            fault_plan=DeviceLatency(fsync_seconds=sizes["fsync_ms"] / 1000.0),
        )
        self.server = RuleServer(
            self.workload.ruleset,
            self.workload.database,
            config=ExecutionConfig(wal=writer),
            options=options,
        )
        # Batches are dealt by stream, as drive_streaming deals them, so
        # each stream's batches stay on one client and in order.
        streams = sorted(self.workload.streams)
        self.assigned = [
            [
                batch
                for batch in self.workload.batches
                if streams.index(batch.stream) % self.clients == client
            ]
            for client in range(self.clients)
        ]
        #: per client: the pool indices of its committed batches
        self.committed: list[list[int]] = [[] for _ in range(self.clients)]
        self.not_committed: set[int] = set()

    def op(self, client: int, index: int):
        batches = self.assigned[client]
        return self.server.run_transaction(batches[index % len(batches)].statements)

    def record(self, client: int, index: int, output) -> None:
        batches = self.assigned[client]
        if output.committed:
            self.committed[client].append(batches[index % len(batches)].index)
        else:
            self.not_committed.add(index * self.clients + client)

    def finish(self) -> None:
        self.server.close()

    def counters(self) -> dict[str, float]:
        batches = self.workload.batches
        committed = [index for per in self.committed for index in per]
        wal = self.server.wal
        counters = {
            f"server.{name}": value
            for name, value in self.server.stats.to_dict().items()
        }
        counters.update(
            {
                "wal.syncs": wal.writer.stats.syncs,
                "wal.bytes_written": wal.writer.stats.bytes_written,
                "wal.commits": wal.stats.commits,
                "group_commit.batches": wal.stats.batches,
                "wal.user_bytes": sum(
                    len(json.dumps(_insert_rows(batches[i].statements[0])))
                    for i in committed
                ),
            }
        )
        return counters

    def check(self, recovered) -> tuple[set[int], list[str]]:
        failed = set(self.not_committed)
        messages = [f"op {i}: rolled back" for i in sorted(failed)]
        database = self.server.database
        if recovered.canonical() != database.canonical():
            failed.add(-1)
            messages.append("recovered WAL differs from the live final state")
        batches = self.workload.batches
        expected = Counter()
        hot = 0
        for index in (i for per in self.committed for i in per):
            statements = batches[index].statements
            stream = batches[index].stream
            expected.update(
                {
                    (stream, region)
                    for _, region, value in _insert_rows(statements[0])
                    if value > 95
                }
            )
            hot += len(statements) > 1
        for stream in self.workload.streams:
            for region, alerts, escalations in _rows(database, f"{stream}_state"):
                if 5 * escalations + alerts != expected[(stream, region)]:
                    failed.add(-1)
                    messages.append(
                        f"{stream} region {region}: 5*{escalations}+{alerts}, "
                        f"expected {expected[(stream, region)]}"
                    )
        ((_, ingested),) = _rows(database, "totals")
        if ingested != self.sizes["batch_rows"] * hot:
            failed.add(-1)
            messages.append(
                f"totals.ingested {ingested}, expected "
                f"{self.sizes['batch_rows'] * hot}"
            )
        return failed, messages

    def close(self) -> None:
        self.server.close()
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


# ----------------------------------------------------------------------
# analyze_rules
# ----------------------------------------------------------------------


class AnalyzeRules(Workload):
    """Parse + analyze seeded random rule programs (no data)."""

    name = "analyze_rules"
    SIZES = {
        "full": {"programs": 24, "rules": 40, "tables": 8},
        "smoke": {"programs": 3, "rules": 12, "tables": 4},
    }

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.sizes = sizes = dict(self.SIZES[scale])
        config = GeneratorConfig(
            n_tables=sizes["tables"],
            n_rules=sizes["rules"],
            p_observable=0.1,
            p_priority=0.02,
        )
        generator = RandomRuleSetGenerator(config)
        self.pool = []
        for program in range(sizes["programs"]):
            ruleset = generator.generate(seed=seed * 1000 + program)
            self.pool.append((ruleset.schema, ruleset.source()))
        #: per op: the report's to_dict() rendering, as JSON text (kept as
        #: text so retained reports do not slow the collector down)
        self.reports: dict[int, str] = {}
        self.totals: Counter = Counter()

    def op(self, client: int, index: int):
        schema, source = self.pool[index % len(self.pool)]
        ruleset = RuleSet.parse(source, schema)
        return RuleAnalyzer(ruleset).analyze(termination_mode="stratified")

    def record(self, client: int, index: int, output) -> None:
        self.reports[index] = json.dumps(output.to_dict())
        stats = output.stats
        self.totals.update(
            {
                "analysis.pairs_judged": stats["pairs_judged"],
                "analysis.pair_memo_hits": stats["pair_memo_hits"],
                "analysis.lemma_judgments": stats["lemma_judgments"],
                "analysis.lemma_memo_hits": stats["lemma_memo_hits"],
                "analysis.terminating_programs": int(output.terminates),
                "analysis.confluent_programs": int(output.confluent),
                "analysis.observably_deterministic_programs": int(
                    output.observably_deterministic
                ),
            }
        )

    def counters(self) -> dict[str, float]:
        return dict(self.totals)

    def check(self, recovered) -> tuple[set[int], list[str]]:
        failed: set[int] = set()
        messages: list[str] = []
        for index, text in self.reports.items():
            data = json.loads(text)
            if AnalysisReport.from_dict(data).to_dict() != data:
                failed.add(index)
                messages.append(f"op {index}: report does not round-trip")
        return failed, messages


# ----------------------------------------------------------------------
# iot_explore
# ----------------------------------------------------------------------


class IotExplore(Workload):
    """explore() of a seeded batch on the 2-region (6-rule) iot cascade."""

    name = "iot_explore"
    SIZES = {
        "full": {"rows": 20_000, "regions": 2, "batch_rows": 128, "pool": 24},
        "smoke": {"rows": 1_000, "regions": 2, "batch_rows": 32, "pool": 2},
    }

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.sizes = sizes = dict(self.SIZES[scale])
        self.workload = iot_workload(
            rows=sizes["rows"], regions=sizes["regions"], batch_rows=1, seed=seed
        )
        devices, regions = self.workload.devices, sizes["regions"]
        rng = _rng(self.name, seed)
        # Only batches with a reading > 950 in every region are kept, so
        # every op explores the full interleaving of all regions' cascades
        # (a batch that alerts one region explores a graph 4x smaller).
        self.pool = []
        while len(self.pool) < sizes["pool"]:
            first = sizes["rows"] + len(self.pool) * sizes["batch_rows"]
            rows = []
            for row in range(first, first + sizes["batch_rows"]):
                device = rng.randrange(devices)
                rows.append((row, device, device % regions, rng.randint(1, 1000)))
            if len({region for _, _, region, value in rows if value > 950}) == regions:
                self.pool.append(
                    "insert into readings values "
                    + ", ".join(f"({a}, {b}, {c}, {d})" for a, b, c, d in rows)
                )
        #: per op: (pool index, truncated, distinct finals)
        self.explored: dict[int, tuple[int, bool, set]] = {}
        self.totals: Counter = Counter()

    def op(self, client: int, index: int):
        workload = self.workload
        processor = RuleProcessor(workload.ruleset, workload.database.copy())
        processor.execute_user(self.pool[index % len(self.pool)])
        return processor, exec_graph.explore(processor)

    def record(self, client: int, index: int, output) -> None:
        processor, graph = output
        self.explored[index] = (
            index % len(self.pool),
            graph.truncated,
            set(graph.final_databases.values()),
        )
        self.totals.update(
            {
                "explore.states": graph.state_count,
                "explore.edges": sum(len(edges) for edges in graph.edges.values()),
            }
        )
        # Forks share their parent's stats, so these cover the whole graph.
        self.totals.update(
            {
                f"processor.stats.{name}": value
                for name, value in processor.stats.to_dict().items()
            }
        )

    def counters(self) -> dict[str, float]:
        return dict(self.totals)

    def check(self, recovered) -> tuple[set[int], list[str]]:
        workload = self.workload
        failed: set[int] = set()
        messages: list[str] = []
        for index, (batch, truncated, finals) in self.explored.items():
            statement = self.pool[batch]
            if truncated or len(finals) != 1:
                failed.add(index)
                messages.append(
                    f"op {index}: truncated={truncated}, {len(finals)} finals"
                )
                continue
            (final,) = finals
            declarative = declarative_outcome(
                workload.ruleset, workload.database, [statement]
            )
            serial = RuleProcessor(workload.ruleset, workload.database.copy())
            serial.execute_user(statement)
            serial.run()
            if declarative.final != final or serial.database.canonical() != final:
                failed.add(index)
                messages.append(
                    f"op {index}: explored final differs from the declarative "
                    f"outcome or the serial run"
                )
        return failed, messages


WORKLOADS = {
    workload.name: workload
    for workload in (IotIngest, PowernetDesign, StreamServer, AnalyzeRules, IotExplore)
}
