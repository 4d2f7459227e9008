"""A streaming ingestion workload for the concurrent server (ROADMAP item 5).

Many independent event *streams*, each with an append-only event table
and a tiny per-region state table maintained by rules, plus one shared
``totals`` counter that periodically forces genuine cross-stream write
conflicts:

* ``{stream}_events(id, region, value)`` — the append-only firehose;
* ``{stream}_state(region, alerts, escalations)`` — one row per region;
* ``totals(id, ingested)`` — a single hot row every ``hot_every``-th
  batch bumps (the contention dial: ``hot_every=0`` turns it off).

Two rules per (stream, region) pair::

    create rule {stream}_alert_r{r} on {stream}_events
    when inserted
    if exists (select * from inserted where region = {r} and value > 95)
    then update {stream}_state set alerts = alerts + 1 where region = {r}

    create rule {stream}_escalate_r{r} on {stream}_state
    when updated(alerts)
    if exists (select * from {stream}_state
               where region = {r} and alerts >= 5)
    then update {stream}_state set alerts = alerts - 5,
                escalations = escalations + 1
         where region = {r}

The alert rule reads only its own transition (the ``inserted``
transition table), so concurrent batches into *different* streams have
disjoint footprints and commit without conflict; the escalate rule
cascades off the alert rule and terminates by monotone decrease of
``alerts``. Everything is seeded, so a run is reproducible
batch-for-batch.

:func:`drive_streaming` is the load driver the server benchmark gate
runs: it deals the seeded batches to worker threads (each stream's
batches stay on one worker, so conflicts come only from the shared
``totals`` row and from retries), pushes every batch through
:meth:`~repro.runtime.server.RuleServer.run_transaction`, and reports
throughput and per-commit latency percentiles.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.config import require_positive
from repro.engine.database import Database
from repro.lang.parser import parse_statement
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import Schema, schema_from_spec

#: the default stream set (one independent rule family each)
STREAMS = (
    "clicks",
    "orders",
    "payments",
    "sensors",
    "logins",
    "errors",
    "metrics",
    "traces",
)

_ALERT_TEMPLATE = """
create rule {stream}_alert_r{region} on {stream}_events
when inserted
if exists (select * from inserted where region = {region} and value > 95)
then update {stream}_state set alerts = alerts + 1 where region = {region}
"""

_ESCALATE_TEMPLATE = """
create rule {stream}_escalate_r{region} on {stream}_state
when updated(alerts)
if exists (select * from {stream}_state
           where region = {region} and alerts >= 5)
then update {stream}_state set alerts = alerts - 5,
            escalations = escalations + 1
     where region = {region}
"""


@dataclass(frozen=True)
class StreamingBatch:
    """One ingestion transaction: statements for one server session.

    Statements are pre-parsed ASTs — a 100-row ``INSERT`` still costs
    about four times as much to parse as to execute (≈3 ms against
    ≈0.7 ms on 2 vCPUs, Python 3.11; the whole in-memory transaction,
    rules and commit included, is ≈5 ms), and :func:`drive_streaming`
    measures ingestion, not parsing (a real stream consumer would bind
    batches into a prepared statement once, not re-parse per batch)."""

    index: int
    stream: str
    statements: tuple
    rows: int


@dataclass
class StreamingWorkload:
    """Schema, rules, the (empty-events) instance, and seeded batches."""

    schema: Schema
    ruleset: RuleSet
    database: Database
    streams: tuple[str, ...]
    regions: int
    batches: tuple[StreamingBatch, ...]

    @property
    def total_rows(self) -> int:
        return sum(batch.rows for batch in self.batches)


def streaming_schema(streams: tuple[str, ...] = STREAMS) -> Schema:
    spec: dict = {}
    for stream in streams:
        spec[f"{stream}_events"] = ["id", "region", "value"]
        spec[f"{stream}_state"] = ["region", "alerts", "escalations"]
    spec["totals"] = ["id", "ingested"]
    return schema_from_spec(spec)


def streaming_workload(
    rows: int = 100_000,
    batch_rows: int = 100,
    regions: int = 4,
    streams: tuple[str, ...] = STREAMS,
    seed: int = 0,
    hot_every: int = 13,
) -> StreamingWorkload:
    """Build the workload: *rows* events in seeded batches of
    *batch_rows* rows dealt round-robin over *streams*; when
    *batch_rows* does not divide *rows*, a last, partial batch carries
    the ``rows % batch_rows`` left over.

    Each batch is one multi-row ``INSERT`` into its stream's event
    table; every ``hot_every``-th batch additionally bumps the shared
    ``totals`` row inside the same transaction (0 disables the hot row
    and makes the workload conflict-free under per-stream dealing; keep
    it coprime with ``len(streams)`` so the hot batches rotate over
    streams — and therefore over driver workers — instead of pinning to
    one).
    Event values are uniform on ``1..100``, so ~5% clear the alert
    rule's ``> 95`` threshold in every region.
    """
    require_positive(rows=rows, batch_rows=batch_rows)
    rng = random.Random(seed)
    schema = streaming_schema(streams)
    rules = "\n".join(
        template.format(stream=stream, region=region)
        for stream in streams
        for region in range(regions)
        for template in (_ALERT_TEMPLATE, _ESCALATE_TEMPLATE)
    )
    ruleset = RuleSet.parse(rules, schema)

    database = Database(schema)
    for stream in streams:
        database.load(
            f"{stream}_state", [(region, 0, 0) for region in range(regions)]
        )
    database.load("totals", [(0, 0)])

    batches: list[StreamingBatch] = []
    next_id = {stream: 0 for stream in streams}
    full, partial = divmod(rows, batch_rows)
    sizes = [batch_rows] * full + ([partial] if partial else [])
    for index, size in enumerate(sizes):
        stream = streams[index % len(streams)]
        values = []
        for _ in range(size):
            event_id = next_id[stream]
            next_id[stream] = event_id + 1
            values.append(
                f"({event_id}, {rng.randrange(regions)}, "
                f"{rng.randint(1, 100)})"
            )
        statements = [
            f"insert into {stream}_events values {', '.join(values)}"
        ]
        if hot_every and index % hot_every == 0:
            statements.append(
                f"update totals set ingested = ingested + {size} "
                f"where id = 0"
            )
        batches.append(
            StreamingBatch(
                index=index,
                stream=stream,
                statements=tuple(
                    parse_statement(source) for source in statements
                ),
                rows=size,
            )
        )
    return StreamingWorkload(
        schema=schema,
        ruleset=ruleset,
        database=database,
        streams=tuple(streams),
        regions=regions,
        batches=tuple(batches),
    )


@dataclass
class DriveReport:
    """What :func:`drive_streaming` measured."""

    workers: int
    committed: int
    rows_ingested: int
    retries: int
    elapsed_seconds: float
    #: per-transaction wall time (session open through durable commit),
    #: in seconds, in completion order
    latencies: list[float] = field(default_factory=list)

    @property
    def commits_per_second(self) -> float:
        return self.committed / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def abort_rate(self) -> float:
        """Retried commit attempts as a fraction of all commit attempts."""
        attempts = self.committed + self.retries
        return self.retries / attempts if attempts else 0.0

    def latency(self, quantile: float) -> float:
        """The *quantile* (0..1) per-commit latency in seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(quantile * len(ordered)))
        return ordered[index]

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "committed": self.committed,
            "rows_ingested": self.rows_ingested,
            "retries": self.retries,
            "abort_rate": round(self.abort_rate, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "commits_per_second": round(self.commits_per_second, 3),
            "p50_commit_seconds": round(self.latency(0.50), 6),
            "p99_commit_seconds": round(self.latency(0.99), 6),
        }


def drive_streaming(
    server,
    batches,
    *,
    workers: int = 8,
    max_retries: int | None = None,
) -> DriveReport:
    """Push *batches* through *server* from *workers* threads.

    Batches are dealt by stream (every stream's batches run on one
    worker, in order), so the per-stream event ids stay monotone and
    conflicts arise only from genuinely shared state. Each batch runs as
    one :meth:`~repro.runtime.server.RuleServer.run_transaction`; a
    :class:`~repro.errors.ConflictError` that exhausts its retry budget
    propagates (the workload is designed not to — the budget exists for
    fairness under extreme contention).
    """
    require_positive(workers=workers)
    batches = list(batches)
    streams = sorted({batch.stream for batch in batches})
    worker_of = {
        stream: index % workers for index, stream in enumerate(streams)
    }
    assignments: list[list[StreamingBatch]] = [[] for _ in range(workers)]
    for batch in batches:
        assignments[worker_of[batch.stream]].append(batch)

    lock = threading.Lock()
    report = DriveReport(
        workers=workers,
        committed=0,
        rows_ingested=0,
        retries=0,
        elapsed_seconds=0.0,
    )
    failures: list[BaseException] = []

    def run(assigned: list[StreamingBatch]) -> None:
        try:
            for batch in assigned:
                began = time.perf_counter()
                outcome = server.run_transaction(
                    batch.statements, max_retries=max_retries
                )
                latency = time.perf_counter() - began
                with lock:
                    if outcome.committed:
                        report.committed += 1
                        report.rows_ingested += batch.rows
                    report.retries += outcome.retries
                    report.latencies.append(latency)
        except BaseException as error:  # surfaced to the caller below
            with lock:
                failures.append(error)

    threads = [
        threading.Thread(
            target=run, args=(assigned,), name=f"repro-stream-{index}"
        )
        for index, assigned in enumerate(assignments)
        if assigned
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.perf_counter() - started
    if failures:
        raise failures[0]
    return report
