"""A concurrent multi-session rule server: snapshot-isolation MVCC.

The paper's execution model is single-agent: one transaction's rule
cascade runs to quiescence, then commits. This module scales that model
to many concurrent sessions over one shared store without giving up the
semantics — each session gets the *whole* single-agent model on a
private snapshot, and a central validator decides which sessions'
results become real.

The design composes three existing substrate pieces:

* **snapshot forks** — :meth:`~repro.engine.database.Database.copy` is
  an O(tables) copy-on-write fork; a session opens one under the server
  mutex and runs its statements plus its rule cascade to fixpoint on it
  with a completely ordinary :class:`~repro.runtime.processor.RuleProcessor`
  (any :class:`~repro.config.ExecutionConfig` matching mode);
* **epochs from the delta log** — the server appends every *published*
  primitive to one :class:`~repro.transitions.delta.DeltaLog`; a
  session's snapshot epoch is simply the log position at fork time, and
  first-committer-wins validation compares the log's per-table touch
  index (:meth:`~repro.transitions.delta.DeltaLog.last_write`) — or, at
  ``granularity="column"``, the finer
  :class:`~repro.transitions.delta.ColumnTouchIndex` — against that
  epoch;
* **footprints from attribute-level dataflow** — what a session *read*
  is the union of the ``ColumnReads``/``RowReadTables`` read sets
  (:mod:`repro.analysis.dataflow`) of every rule it considered, plus
  the statement-level footprints of its user statements. Triggering
  itself needs no footprint: a rule's transition predicate reads only
  the session's own delta log.

Commit protocol (first-committer-wins). Under the server mutex the
validator checks every item in the session's read/write footprint
against the touch epochs: any item written by a commit after the
session's snapshot epoch is a conflict and the session aborts with a
retriable :class:`~repro.errors.ConflictError` — nothing it did is
visible, its fork is simply dropped. A winner *publishes* its folded
net effect onto the authoritative database (insert tids are
reallocated from the server counter; updates merge column deltas via
:meth:`~repro.engine.database.Database.merge_update`), appends the
published primitives to the server log (advancing the epochs), and —
in durable mode — submits them to the
:class:`~repro.engine.wal.GroupCommitWal` coalescer *inside* the mutex
(so WAL commit order equals publication order) and waits for the group
fsync outside it.

Why serializable-enough. With ``isolation="serializable"`` validation
covers reads as well as writes, so a committed session saw — on every
table, column and row-membership set it depended on — exactly the
state produced by the sessions that committed before it. Each
session's cascade is a deterministic function of its statements and
those reads (given a deterministic strategy), so re-executing the
committed sessions *serially in commit order* reproduces each net
effect, and therefore the final canonical database
(:func:`serial_replay` — the determinism oracle the benchmark gate
asserts byte-identical). ``isolation="snapshot"`` drops the read
checks: classical snapshot isolation, fewer aborts, no oracle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.config import (
    DEFAULT_CONFIG,
    DEFAULT_SERVER_OPTIONS,
    ExecutionConfig,
    ServerOptions,
)
from repro.engine.database import Database
from repro.errors import ConflictError, RuleProcessingError
from repro.lang import ast
from repro.lang.parser import parse_statement
from repro.runtime.processor import ProcessingResult, RuleProcessor
from repro.runtime.strategies import FirstEligibleStrategy
from repro.rules.ruleset import RuleSet
from repro.stats import StatsBase
from repro.transitions.delta import ColumnTouchIndex, DeltaLog, Primitive
from repro.transitions.net_effect import NetEffect


class ServerStats(StatsBase):
    """Work counters for the concurrent server (the ``--stats`` surface).

    ``conflicts`` counts first-committer-wins aborts; ``retries`` counts
    session re-runs :meth:`RuleServer.run_transaction` performed after
    one; ``rollbacks`` counts sessions whose own cascade rolled back
    (a paper-semantics abort, never retried). ``validate_seconds`` is
    the ``commit_validate`` profile phase; ``commit_wait_seconds`` is
    time spent waiting for the group fsync.
    """

    FIELDS = (
        "sessions",
        "commits",
        "conflicts",
        "retries",
        "rollbacks",
        "published_primitives",
        "validate_seconds",
        "publish_seconds",
        "commit_wait_seconds",
    )
    SECONDS = frozenset(
        {"validate_seconds", "publish_seconds", "commit_wait_seconds"}
    )


@dataclass(frozen=True)
class CommitReceipt:
    """What a successful :meth:`Session.commit` returns."""

    session_id: int
    #: position in the global commit order (1-based, dense); the WAL
    #: tags this session's commit marker with it
    commit_seq: int
    #: the session's snapshot epoch (server log position at fork)
    epoch: int
    #: primitives published onto the shared store
    published: int
    #: True when the commit is on disk (durable servers only)
    durable: bool


@dataclass(frozen=True)
class TransactionOutcome:
    """What :meth:`RuleServer.run_transaction` returns."""

    committed: bool
    rolled_back: bool
    receipt: CommitReceipt | None
    result: ProcessingResult | None
    retries: int


class _StatementShim:
    """Duck-typed stand-in for :class:`~repro.rules.rule.Rule`, so
    :func:`~repro.analysis.scoping.resolve_references` can walk a bare
    user statement. ``table`` is empty: user statements cannot reference
    transition tables (there is no triggering rule to resolve them
    against)."""

    __slots__ = ("schema", "table", "condition", "actions")

    def __init__(self, schema, statement: ast.Statement) -> None:
        self.schema = schema
        self.table = ""
        self.condition = None
        self.actions = (statement,)


class _Footprint:
    """What one session read: row-membership tables and (table, column)
    value reads, accumulated as statements execute and rules are
    considered. Writes are not tracked here — the session's folded net
    effect at commit time *is* the exact write set."""

    __slots__ = ("row_tables", "columns")

    def __init__(self) -> None:
        self.row_tables: set[str] = set()
        self.columns: set[tuple[str, str]] = set()

    def add(
        self, rows: frozenset[str], columns: frozenset[tuple[str, str]]
    ) -> None:
        self.row_tables |= rows
        self.columns |= columns


def _reads_of(shim_or_rule) -> tuple[frozenset, frozenset]:
    """The MVCC read footprint of one rule or statement shim: the
    ``RowReadTables`` and ``ColumnReads`` folds of one scoped walk.

    The dataflow sets are reused as-is, with one deliberate widening:
    target tables of UPDATE/DELETE statements become row-membership
    reads. The dataflow module excludes them (its Lemma 6.1 consumers
    handle write-target interference separately), but the validator
    needs them for phantom protection — an UPDATE's WHERE scan decides
    *which* rows to write, so a concurrently inserted matching row
    breaks serial-replay equivalence unless it conflicts.
    """
    # Imported lazily: the analysis package imports runtime modules.
    from repro.analysis.dataflow import column_reads, row_read_tables
    from repro.analysis.scoping import resolve_references

    references = resolve_references(shim_or_rule)
    columns = column_reads(references)
    rows = set(row_read_tables(references))
    for action in shim_or_rule.actions:
        if isinstance(action, (ast.Update, ast.Delete)):
            rows.add(action.table.lower())
    rows.discard("")  # an unresolved transition-table shim binding
    rows.update(table for table, _ in columns)
    return frozenset(rows), columns


class Session:
    """One client transaction: a COW fork, a private rule processor,
    and an accumulated read footprint.

    The lifecycle is ``execute(...)* → run() → commit()`` (interleaving
    more execute/run rounds is fine — each ``run()`` is one assertion
    point). ``commit()`` either returns a :class:`CommitReceipt` or
    raises :class:`~repro.errors.ConflictError`; either way the session
    is closed afterwards. Sessions are single-threaded objects: share
    the *server* across threads, not a session.
    """

    def __init__(
        self,
        server: "RuleServer",
        session_id: int,
        fork: Database,
        epoch: int,
        strategy=None,
    ) -> None:
        self._server = server
        self.session_id = session_id
        self.epoch = epoch
        self._footprint = _Footprint()
        #: the session script, replayable by the determinism oracle:
        #: ("x", statement_ast) and ("run",) entries in order
        self._script: list[tuple] = []
        self._closed = False
        self._processor = RuleProcessor(
            server.ruleset,
            fork,
            strategy=strategy or FirstEligibleStrategy(),
            config=server.session_config,
        )

    # -- the transaction surface ---------------------------------------

    @property
    def database(self) -> Database:
        """The session's private snapshot fork (never the shared store)."""
        return self._processor.database

    @property
    def rolled_back(self) -> bool:
        return self._processor.rolled_back

    def execute(self, statement: ast.Statement | str):
        """Execute one user statement on the fork (no rule processing)."""
        self._check_open()
        if isinstance(statement, str):
            statement = parse_statement(statement)
        self._footprint.add(*self._server.statement_reads(statement))
        self._script.append(("x", statement))
        return self._processor.execute_user(statement)

    def run(self) -> ProcessingResult:
        """Run the rule cascade to fixpoint (one assertion point)."""
        self._check_open()
        result = self._processor.run()
        self._script.append(("run",))
        for rule_name in result.rules_considered:
            self._footprint.add(*self._server.rule_reads(rule_name))
        return result

    def commit(self) -> CommitReceipt:
        """Validate first-committer-wins and publish atomically.

        Raises :class:`~repro.errors.ConflictError` (retriable — open a
        fresh session) when validation fails, and
        :class:`~repro.errors.RuleProcessingError` when the session's
        own cascade rolled back (a rolled-back transaction cannot
        commit; this is the paper's abort, not a concurrency abort).
        Either way the session is closed on return.
        """
        self._check_open()
        try:
            if self._processor.rolled_back:
                self._server._note_rollback()
                raise RuleProcessingError(
                    "cannot commit a rolled-back session"
                )
            net = NetEffect.from_primitives(self._processor.log.all())
            return self._server._commit(self, net)
        finally:
            self._closed = True

    def abort(self) -> None:
        """Drop the fork; nothing the session did is visible anywhere."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuleProcessingError("session is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.abort()


class RuleServer:
    """Admits many concurrent sessions over one shared store.

    Thread-per-session: any number of threads may each open a
    :meth:`session` (or call :meth:`run_transaction`) concurrently; the
    server serializes only session opening and commit
    validation/publication under one mutex, so rule processing — the
    expensive part — runs fully outside it. In durable mode
    (``config.wal`` set) winning commits flow through a
    :class:`~repro.engine.wal.GroupCommitWal` coalescer; recovery of
    the server's WAL replays exactly the committed sessions in commit
    order.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        database: Database,
        *,
        config: ExecutionConfig | None = None,
        options: ServerOptions | None = None,
        fault_plan=None,
        record_history: bool = False,
        record_commit_canonicals: bool = False,
    ) -> None:
        if ruleset.schema is not database.schema:
            raise RuleProcessingError(
                "rule set and database use different schemas"
            )
        self.ruleset = ruleset
        self.config = config if config is not None else DEFAULT_CONFIG
        self.options = options if options is not None else DEFAULT_SERVER_OPTIONS
        #: sessions run their forks non-durably: the *server's* log is
        #: the durable one, fed at publication with the published
        #: primitives (fork-side primitives never hit disk)
        self.session_config = self.config.with_options(wal=None)
        self._database = database
        self._mutex = threading.Lock()
        self._log = DeltaLog()
        self._touch = ColumnTouchIndex()
        self._commits = 0
        self._session_counter = 0
        self._failed: BaseException | None = None
        self.stats = ServerStats()

        schema = database.schema
        self._column_names = {
            table.name: table.column_names for table in schema
        }
        self._column_index = {
            table.name: {
                name: index
                for index, name in enumerate(table.column_names)
            }
            for table in schema
        }

        self._rule_reads: dict[str, tuple[frozenset, frozenset]] = {
            rule.name: _reads_of(rule) for rule in ruleset
        }

        #: committed sessions' scripts in commit order (oracle input)
        self.history: list[tuple[int, tuple]] | None = (
            [] if record_history else None
        )
        #: commit_seq -> canonical database after that commit (the
        #: concurrent crash matrix keys its expectations on this)
        self.commit_canonicals: dict[int, tuple] | None = (
            {} if record_commit_canonicals else None
        )

        self._wal = None
        if self.config.wants_wal:
            from repro.engine.wal import GroupCommitWal, WalWriter

            writer = self.config.wal
            if isinstance(writer, str):
                writer = WalWriter(
                    writer, schema=schema, fault_plan=fault_plan
                )
            if self.options.group_commit:
                group = GroupCommitWal(
                    writer,
                    max_delay=self.options.max_delay,
                    max_batch=self.options.max_batch,
                )
            else:
                # Same code path, degenerate batching: every commit
                # syncs alone (the per-commit-fsync baseline).
                group = GroupCommitWal(writer, max_delay=0.0, max_batch=1)
            if any(
                len(database.table(table.name)) for table in schema
            ):
                group.checkpoint(database)
            self._wal = group

    # -- introspection --------------------------------------------------

    @property
    def database(self) -> Database:
        """The authoritative store. Consistent reads require quiescence
        (no in-flight commits) — take a session for a snapshot read."""
        return self._database

    @property
    def wal(self):
        """The group-commit WAL (None when not durable)."""
        return self._wal

    @property
    def commit_count(self) -> int:
        return self._commits

    def stats_sections(self) -> dict[str, dict]:
        """Named stats payloads for ``--stats``/``--json`` rendering."""
        sections = {"server": self.stats.to_dict()}
        if self._wal is not None:
            sections["group_commit"] = self._wal.stats.to_dict()
            sections["wal"] = self._wal.writer.stats.to_dict()
        return sections

    # -- footprint helpers (read-only after construction) ---------------

    def rule_reads(self, rule_name: str) -> tuple[frozenset, frozenset]:
        return self._rule_reads[rule_name.lower()]

    def statement_reads(
        self, statement: ast.Statement
    ) -> tuple[frozenset, frozenset]:
        # Fast path for the streaming-ingestion shape: an INSERT of
        # literal VALUES reads nothing, and resolving a wide batch's
        # rows costs more than executing it.
        if (
            isinstance(statement, ast.Insert)
            and statement.query is None
            and all(
                type(value) is ast.Literal
                for row in statement.rows
                for value in row
            )
        ):
            return frozenset(), frozenset()
        return _reads_of(_StatementShim(self._database.schema, statement))

    # -- session lifecycle ----------------------------------------------

    def session(self, *, strategy=None) -> Session:
        """Open a snapshot session (thread-safe)."""
        with self._mutex:
            self._raise_if_failed()
            self._session_counter += 1
            session_id = self._session_counter
            fork = self._database.copy()
            epoch = self._log.position
            self.stats.sessions += 1
        return Session(self, session_id, fork, epoch, strategy)

    def run_transaction(
        self,
        statements,
        *,
        strategy_factory=None,
        max_retries: int | None = None,
    ) -> TransactionOutcome:
        """Execute *statements*, cascade to fixpoint, commit — retrying
        on :class:`~repro.errors.ConflictError` up to *max_retries*
        times (default :attr:`ServerOptions.max_retries`). A cascade
        that rolls back aborts the transaction without retry (that is
        the transaction's semantics, not a concurrency artifact)."""
        budget = (
            self.options.max_retries if max_retries is None else max_retries
        )
        retries = 0
        while True:
            session = self.session(
                strategy=strategy_factory() if strategy_factory else None
            )
            try:
                for statement in statements:
                    session.execute(statement)
                result = session.run()
                if result.outcome == "rolled_back":
                    session.abort()
                    self._note_rollback()
                    return TransactionOutcome(
                        committed=False,
                        rolled_back=True,
                        receipt=None,
                        result=result,
                        retries=retries,
                    )
                receipt = session.commit()
                return TransactionOutcome(
                    committed=True,
                    rolled_back=False,
                    receipt=receipt,
                    result=result,
                    retries=retries,
                )
            except ConflictError:
                if retries >= budget:
                    raise
                retries += 1
                with self._mutex:
                    self.stats.retries += 1
            finally:
                if not session._closed:
                    session.abort()

    # -- commit: validate, publish, make durable -------------------------

    def _note_rollback(self) -> None:
        with self._mutex:
            self.stats.rollbacks += 1

    def _raise_if_failed(self) -> None:
        if self._failed is not None:
            raise RuleProcessingError(
                f"server WAL failed; the store is no longer accepting "
                f"commits: {self._failed}"
            )

    def _commit(self, session: Session, net: NetEffect) -> CommitReceipt:
        with self._mutex:
            started = time.perf_counter()  # after acquisition: lock waits
            self._raise_if_failed()        # are not validation time
            conflicts = self._validate(session, net)
            validated = time.perf_counter()
            self.stats.validate_seconds += validated - started
            if conflicts:
                self.stats.conflicts += 1
                raise ConflictError(
                    f"session {session.session_id} conflicts on "
                    f"{', '.join(conflicts)} (snapshot epoch "
                    f"{session.epoch}, now {self._log.position})",
                    items=tuple(conflicts),
                )
            published = self._publish(net)
            self._commits += 1
            commit_seq = self._commits
            if self.history is not None:
                self.history.append((commit_seq, tuple(session._script)))
            if self.commit_canonicals is not None:
                self.commit_canonicals[commit_seq] = (
                    self._database.canonical()
                )
            self.stats.publish_seconds += time.perf_counter() - validated
            self.stats.commits += 1
            self.stats.published_primitives += len(published)
            ticket = None
            if self._wal is not None:
                # Submitted inside the mutex: the coalescer preserves
                # submission order, so WAL commit order == publication
                # order and recovery replays net effects in the order
                # they were applied here.
                ticket = self._wal.submit(
                    session.session_id, published, epoch=commit_seq
                )
        durable = False
        if ticket is not None:
            waited_from = time.perf_counter()
            try:
                self._wal.wait(ticket)
            except BaseException as error:
                with self._mutex:
                    self._failed = error
                raise
            durable = True
            with self._mutex:
                self.stats.commit_wait_seconds += (
                    time.perf_counter() - waited_from
                )
        return CommitReceipt(
            session_id=session.session_id,
            commit_seq=commit_seq,
            epoch=session.epoch,
            published=len(published),
            durable=durable,
        )

    def _validate(self, session: Session, net: NetEffect) -> list[str]:
        """First-committer-wins: the conflicting footprint items (empty
        means the session wins). Called under the mutex."""
        epoch = session.epoch
        footprint = session._footprint
        serializable = self.options.isolation == "serializable"
        conflicts: dict[str, None] = {}

        if self.options.granularity == "table":
            tables = set(net.tables)
            if serializable:
                tables |= footprint.row_tables
            for table in sorted(tables):
                if self._log.last_write(table) > epoch:
                    conflicts[table] = None
            return list(conflicts)

        touch = self._touch
        if serializable:
            # Membership reads conflict with structural writes; column
            # value reads conflict with in-place updates of that column.
            # (Every column-read table is also a row-read table — see
            # _reads_of — so delete/insert interference with value reads
            # is covered by the membership check.)
            for table in sorted(footprint.row_tables):
                if touch.inserted_since(table, epoch) or touch.deleted_since(
                    table, epoch
                ):
                    conflicts[table] = None
            for table, column in sorted(footprint.columns):
                index = self._column_index[table][column]
                if touch.updated_since(table, index, epoch):
                    conflicts[f"{table}.{column}"] = None

        # Write-write validation runs in BOTH isolation modes: it is
        # what keeps publication's column-delta merge sound (no two
        # committed sessions ever wrote the same column or delete-vs-
        # wrote the same table). Inserts conflict with nothing — their
        # tids are fresh by construction.
        for table in net.tables:
            effect = net.table(table)
            if effect.deleted and (
                touch.deleted_since(table, epoch)
                or touch.any_update_since(table, epoch)
            ):
                conflicts[table] = None
            if effect.updated:
                if touch.deleted_since(table, epoch):
                    conflicts[table] = None
                for column in sorted(
                    effect.updated_columns(self._column_names[table])
                ):
                    index = self._column_index[table][column]
                    if touch.updated_since(table, index, epoch):
                        conflicts[f"{table}.{column}"] = None
        return list(conflicts)

    def _publish(self, net: NetEffect) -> list[Primitive]:
        """Apply the winner's net effect to the authoritative store.

        Insert tids are reallocated from the server counter (fork-side
        tids may collide across sibling sessions); updates merge only
        the columns the session actually changed onto the *current* row,
        preserving concurrent committed writes to disjoint columns.
        Every applied primitive is appended to the server log (advancing
        the touch epochs) and returned for the WAL. Called under the
        mutex.
        """
        database = self._database
        published: list[Primitive] = []
        for table in sorted(net.tables):
            effect = net.table(table)
            data = database.table(table)
            for tid in sorted(effect.deleted):
                old = data.delete(tid)
                published.append(self._log.record_delete(table, tid, old))
            for tid in sorted(effect.updated):
                old, new = effect.updated[tid]
                changed = {
                    index: value
                    for index, (stale, value) in enumerate(zip(old, new))
                    if stale != value
                }
                if not changed:
                    continue
                merged_old, merged_new = database.merge_update(
                    table, tid, changed
                )
                published.append(
                    self._log.record_update(
                        table, tid, merged_old, merged_new
                    )
                )
            for tid in sorted(effect.inserted):
                values = effect.inserted[tid]
                fresh = database.allocate_tid()
                data.insert(fresh, values)
                published.append(
                    self._log.record_insert(table, fresh, values)
                )
        for primitive in published:
            self._touch.observe(primitive)
        # The log is an epoch source, not an archive: the WAL holds the
        # durable copy, so drop the stored primitives (positions and the
        # touch index survive compaction).
        self._log.compact()
        return published

    # -- shutdown --------------------------------------------------------

    def close(self) -> None:
        """Drain and close the WAL (no-op for in-memory servers)."""
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "RuleServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serial_replay(
    ruleset: RuleSet,
    database: Database,
    history,
    *,
    config: ExecutionConfig | None = None,
    strategy_factory=None,
) -> Database:
    """The determinism oracle: re-execute committed sessions serially.

    *history* is :attr:`RuleServer.history` — ``(commit_seq, script)``
    pairs. Each script replays as its own transaction on *database*
    (statements and assertion points in the session's original order),
    in commit order, on one ordinary single-agent processor. Under
    ``isolation="serializable"`` the result's canonical form must equal
    the server's — that equality is the gate's oracle check.
    """
    replay_config = (config if config is not None else DEFAULT_CONFIG)
    replay_config = replay_config.with_options(wal=None)
    processor = RuleProcessor(
        ruleset,
        database,
        strategy=strategy_factory() if strategy_factory else None,
        config=replay_config,
    )
    for _, script in sorted(history):
        processor.begin_transaction()
        for op in script:
            if op[0] == "x":
                processor.execute_user(op[1])
            else:
                result = processor.run()
                if result.outcome == "rolled_back":
                    raise RuleProcessingError(
                        "serial replay rolled back — committed history "
                        "is not replayable (validation soundness bug)"
                    )
    return database
