"""The rule processor: Starburst rule-processing semantics (Section 2).

The key mechanism is the pair (delta log, per-rule markers):

* every tuple-level operation — user-generated or from a rule action —
  is appended to one shared :class:`~repro.transitions.delta.DeltaLog`;
* each rule holds a *marker*, the log position of its last consideration
  (initially the position of the current assertion point);
* a rule is **triggered** iff the net effect of the log suffix past its
  marker contains one of its ``Triggered-By`` operations;
* when a rule is considered, its transition tables are materialized from
  that suffix, its marker advances to the pre-action log position, its
  condition is checked, and (if true) its action runs — so the rule sees
  its own action's operations as a fresh transition, while rules not yet
  considered keep accumulating the composite transition.

This reproduces exactly the triggering discipline described in the
paper: "a given rule is triggered if its transition predicate holds with
respect to the (composite) transition since the last time it was
considered."

The processor keeps the paper's state ``S = (D, TR)`` across steps
instead of recomputing TR: the triggered set is held as of a log
position, and Lemma 4.1 bounds what a step can change — a rule enters
or leaves TR only through operations on its own table, or leaves it by
being considered. So bringing TR up to date rechecks only the rules on
tables the log's per-table touch index shows were written since, and
:meth:`mark_considered` / :meth:`mark_assertion_point`, the only
writers of ``markers``, keep TR in step with them. A recheck stops at
the first pending operation in ``Triggered-By``. A rule sees its
pending transition only through its own table, so the pending
transitions are cached per *slice*, one per (rule table, marker): the
net effect on that table of the log suffix past the marker, advanced
by :meth:`NetEffect.fold` over only the primitives on that table
appended since it was last examined — each primitive is folded at
most once per slice, however many rules on the table hold the marker.
Until its next fold a slice also keeps the transition tables built
from it and the equality indexes over them, so rules that share a
slice share ``inserted`` and its index. :meth:`pending_net_effect`
refolds a rule's pending transition from the log instead; the
equivalence harness and the substrate benchmark gate hold TR, the
state key and the slices to that refold at every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG, ExecutionConfig
from repro.engine import plan as P
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.query import DatabaseProvider, OverlayProvider
from repro.engine.rete import ReteInstance, ReteNetwork
from repro.engine.values import sql_is_truthy
from repro.errors import (
    RollbackSignal,
    RuleProcessingError,
    RuleProcessingLimitExceeded,
)
from repro.lang import ast
from repro.lang.parser import parse_statement
from repro.runtime.observer import ObservableAction
from repro.runtime.strategies import FirstEligibleStrategy
from repro.rules.ruleset import RuleSet
from repro.stats import StatsBase
from repro.transitions.delta import DeltaLog
from repro.transitions.net_effect import NetEffect
from repro.transitions.transition_tables import transition_table_overlays


@dataclass(frozen=True)
class ConsiderationOutcome:
    """What happened when one rule was considered."""

    rule: str
    condition_was_true: bool
    operations_performed: int
    rolled_back: bool = False


@dataclass
class ProcessingResult:
    """The outcome of running rule processing to quiescence."""

    outcome: str  # "quiescent" or "rolled_back"
    steps: list[ConsiderationOutcome] = field(default_factory=list)
    observables: list[ObservableAction] = field(default_factory=list)

    @property
    def rules_considered(self) -> list[str]:
        return [step.rule for step in self.steps]


class ProcessorStats(StatsBase):
    """Work counters for the runtime substrate (benchmark gate input).

    ``primitives_folded`` counts the primitives folded into pending
    slices, at most once per slice; ``primitives_scanned`` counts the
    primitives :meth:`RuleProcessor.pending_net_effect` refolds. The
    substrate gate's triggering-work ratio is ``scanned / folded`` on
    one run that refolds every active rule at every step beside the
    maintained TR. ``trigger_checks`` counts the rechecks of rules on
    tables written since TR was last brought up to date;
    ``touch_skips`` counts rechecks answered by the per-table touch
    index alone (the rule's table was not written since its marker);
    ``trigger_seconds`` is wall time spent in triggered_rules() (the
    --profile surface).
    """

    FIELDS = (
        "trigger_checks",
        "touch_skips",
        "primitives_folded",
        "primitives_scanned",
        "forks",
        "considerations",
        "trigger_seconds",
    )
    SECONDS = frozenset({"trigger_seconds"})


class _Slice:
    """The pending transition of the rules on one table that hold one
    marker: the net effect, on that table, of the log suffix past the
    marker, advanced incrementally.

    ``position`` is the log position folded up to. ``overlays`` (the
    four transition tables), ``indexes`` (the equality indexes built
    over them, keyed by overlay name and columns) and ``canonical``
    (the form ``state_key`` reads) are memos of ``net``: a fold that
    adds primitives replaces all three, never mutates them, so a
    provider or a fork still holding the old ones reads a consistent
    state. Slices are keyed by (table, marker) in
    :attr:`RuleProcessor._slices`; markers move only through
    :meth:`RuleProcessor.mark_considered` and
    :meth:`RuleProcessor.mark_assertion_point`, which drop a slice no
    rule holds any more.
    """

    __slots__ = ("position", "net", "overlays", "indexes", "canonical")

    def __init__(self, marker: int) -> None:
        self.position = marker
        self.net = NetEffect()
        self.overlays: dict | None = None
        self.indexes: dict = {}
        self.canonical: tuple | None = None

    def fork(self) -> "_Slice":
        clone = _Slice(self.position)
        clone.net = self.net.share()
        clone.overlays = self.overlays
        clone.indexes = self.indexes
        clone.canonical = self.canonical
        return clone


class RuleProcessor:
    """Processes rules over a database at assertion points."""

    def __init__(
        self,
        ruleset: RuleSet,
        database: Database,
        strategy=None,
        max_steps: int = 10_000,
        *,
        config: ExecutionConfig | None = None,
    ) -> None:
        if ruleset.schema is not database.schema:
            raise RuleProcessingError(
                "rule set and database use different schemas"
            )
        self.ruleset = ruleset
        self.database = database
        self.strategy = strategy or FirstEligibleStrategy()
        self.max_steps = max_steps
        #: the session's execution options
        self.config = config if config is not None else DEFAULT_CONFIG

        self.log = DeltaLog()
        self.markers: dict[str, int] = {rule.name: 0 for rule in ruleset}
        self.observables: list[ObservableAction] = []
        self.stats = ProcessorStats()
        self._column_names = {
            table.name: table.column_names for table in ruleset.schema
        }
        #: the pending transitions, one slice per (rule table, marker)
        #: some rule holds
        self._slices: dict[tuple[str, int], _Slice] = {}
        #: the paper's TR as of log position ``_triggered_at``: the rules
        #: whose pending transition holds a Triggered-By event, before
        #: the activation filter
        self._triggered: set[str] = set()
        self._triggered_at = 0

        self._transaction_snapshot = database.snapshot()
        self._rolled_back = False

        #: the incremental match network (rete matching only): topology
        #: compiled once per processor, memories built lazily and shared
        #: copy-on-write across fork()s
        self._rete = None
        if self.config.matching == "rete":
            self._rete = ReteInstance(
                ReteNetwork(ruleset), database, self.log
            )

        #: WAL writer when running durably, else None. Every primitive
        #: the delta log records is framed into the WAL under the open
        #: transaction id; begin/commit/abort markers bracket it.
        self.wal = self.config.wal
        if isinstance(self.wal, str):
            from repro.engine.wal import WalWriter

            self.wal = WalWriter(self.wal, schema=database.schema)
        self._txn_id = 1
        if self.wal is not None:
            if any(len(database.table(t.name)) for t in database.schema):
                # The session may start from a pre-loaded database whose
                # rows were never logged; checkpoint them so recovery
                # replays onto the same base state.
                self.wal.checkpoint(database)
            self.wal.begin(self._txn_id)
            self.log.set_sink(self._log_to_wal)

    # ------------------------------------------------------------------
    # Transaction control and user operations
    # ------------------------------------------------------------------

    def _log_to_wal(self, primitive) -> None:
        self.wal.primitive(self._txn_id, primitive)

    def begin_transaction(self) -> None:
        """Start a fresh transaction at the current database state."""
        self._transaction_snapshot = self.database.snapshot()
        self._rolled_back = False
        if self.wal is not None:
            self._txn_id += 1
            self.wal.begin(self._txn_id)

    def commit(self) -> int | None:
        """Commit the current transaction durably.

        Flushes and fsyncs the WAL through this transaction's commit
        marker — the instant the marker is on disk, recovery lands on
        this exact state. The next transaction begins immediately (so
        every later primitive has an open transaction to belong to),
        and the rollback restore point advances to the commit point.

        Returns the WAL frame count as of the commit marker (None when
        not durable) — the crash-simulation harness keys on it.

        The delta log drops its stored primitives here when no reader
        needs them any more: every rule marker and the rete cursor sit
        at the log's end (as after a quiescent :meth:`run`). Positions
        and the touch index survive, so nothing a later step reads
        changes; a commit with a rule still pending keeps the log.
        """
        if self._rolled_back:
            raise RuleProcessingError("transaction was rolled back")
        frames = None
        if self.wal is not None:
            frames = self.wal.commit(self._txn_id)
        self._transaction_snapshot = self.database.snapshot()
        if self.wal is not None:
            self._txn_id += 1
            self.wal.begin(self._txn_id)
        position = self.log.position
        if all(marker == position for marker in self.markers.values()) and (
            self._rete is None or self._rete.consumed(position)
        ):
            self.log.compact()
        return frames

    def close(self) -> None:
        """Close the WAL (if any) without committing the open
        transaction — its frames may reach disk but recovery discards
        them, exactly like a crash at this point."""
        if self.wal is not None:
            self.log.set_sink(None)
            self.wal.close()
            self.wal = None

    def execute_user(self, statement: ast.Statement | str):
        """Execute a user-generated operation (no rule processing yet).

        These operations form the initial transition of the next
        assertion point. Accepts an AST statement or source text.
        """
        if self._rolled_back:
            raise RuleProcessingError("transaction was rolled back")
        if isinstance(statement, str):
            statement = parse_statement(statement)
        return execute_statement(
            self.database, statement, log=self.log, config=self.config
        )

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------

    def _slice_for(self, rule) -> _Slice:
        """The pending slice *rule* reads, advanced to the current log end.

        Only primitives on the rule's table are folded, each at most
        once per slice; an advance over other tables' primitives only
        moves the slice's position.
        """
        table = rule.table
        key = (table, self.markers[rule.name])
        pending = self._slices.get(key)
        if pending is None:
            pending = self._slices[key] = _Slice(key[1])
        start, position = pending.position, self.log.position
        if start < position:
            if self.log.written_since(table, start):
                primitives = [
                    primitive
                    for primitive in self.log.iter_range(start, position)
                    if primitive.table == table
                ]
                if primitives:
                    self.stats.primitives_folded += len(primitives)
                    pending.net = pending.net.fold(primitives)
                    pending.overlays = None
                    pending.indexes = {}
                    pending.canonical = None
            pending.position = position
        return pending

    def pending_net_effect(self, rule_name: str) -> NetEffect:
        """The composite transition, over every table, since *rule_name*
        was last considered, refolded from the log (the cached slices
        hold only the rule's own table)."""
        suffix = self.log.since(self.markers[rule_name.lower()])
        self.stats.primitives_scanned += len(suffix)
        return NetEffect.from_primitives(suffix)

    def _recheck(self, rule) -> bool:
        """The triggering check of one rule: does its pending transition
        hold a Triggered-By event? Stops at the first pending insert,
        delete or subscribed-column update that does."""
        self.stats.trigger_checks += 1
        if not self.log.written_since(rule.table, self.markers[rule.name]):
            # Touch index: the rule's table was not written since its
            # marker, so its pending transition holds no operation on
            # that table and nothing needs folding.
            self.stats.touch_skips += 1
            return False
        effect = self._slice_for(rule).net.table(rule.table)
        return (
            (rule.triggered_by_insert and bool(effect.inserted))
            or (rule.triggered_by_delete and bool(effect.deleted))
            or effect.updates_any(rule.triggered_by_positions)
        )

    def _refresh_triggered(self) -> None:
        """Bring TR up to the log end.

        Lemma 4.1: a rule enters TR only through operations on its own
        table, and leaves it only by consideration (which
        :meth:`mark_considered` records) or by Can-Untrigger, again
        through operations on its table. A rule's pending transition on
        its table depends only on its marker and the primitives on that
        table, so only the rules on tables written since the last
        refresh can have changed membership; each is rechecked.
        """
        since = self._triggered_at
        position = self.log.position
        if since == position:
            return
        triggered = self._triggered
        for table, rules in self.ruleset.rules_by_table.items():
            if self.log.written_since(table, since):
                for rule in rules:
                    if self._recheck(rule):
                        triggered.add(rule.name)
                    else:
                        triggered.discard(rule.name)
        self._triggered_at = position

    def triggered_rules(self) -> tuple[str, ...]:
        """All currently triggered active rules, in definition order."""
        if self._rolled_back:
            return ()
        started = time.perf_counter()
        self._refresh_triggered()
        triggered = tuple(
            name
            for name in self.ruleset.active_names
            if name in self._triggered
        )
        self.stats.trigger_seconds += time.perf_counter() - started
        return triggered

    def eligible_rules(self) -> tuple[str, ...]:
        """``Choose`` applied to the current triggered set."""
        return self.ruleset.choose(self.triggered_rules())

    # ------------------------------------------------------------------
    # Consideration of a single rule
    # ------------------------------------------------------------------

    def consider(
        self, rule_name: str, *, eligible: tuple[str, ...] | None = None
    ) -> ConsiderationOutcome:
        """Consider one rule: check its condition, maybe run its action.

        The caller must pass a currently eligible rule (this is checked).
        A caller that just computed :meth:`eligible_rules` passes it as
        *eligible* so the scan is not repeated; the membership check
        against the provided tuple is O(|eligible|).
        """
        rule_name = rule_name.lower()
        if eligible is None:
            eligible = self.eligible_rules()
        if rule_name not in eligible:
            raise RuleProcessingError(
                f"rule {rule_name!r} is not eligible for consideration"
            )
        rule = self.ruleset.rule(rule_name)
        self.stats.considerations += 1

        pending = self._slice_for(rule)
        if pending.overlays is None:
            pending.overlays = transition_table_overlays(
                pending.net, rule.table, self._column_names[rule.table]
            )
        provider = OverlayProvider(
            DatabaseProvider(self.database), pending.overlays, pending.indexes
        )

        # Mark the rule considered *before* running its action: the rule
        # sees its own action's operations as a fresh transition (and may
        # re-trigger itself), per Section 2.
        self.mark_considered(rule_name, self.log.position)

        condition_true = True
        if rule.condition is not None:
            verdict = None
            if self._rete is not None:
                # The network's verdict equals the planned executor's by
                # construction; None means this condition is not
                # network-supported (or the instance got poisoned) and
                # the planned path below answers instead.
                verdict = self._rete.verdict(rule_name)
            if verdict is not None:
                condition_true = verdict
            else:
                evaluator = Evaluator(provider, config=self.config)
                if self.config.matching == "naive":
                    value = evaluator.evaluate(rule.condition, RowContext())
                else:
                    condition = P.compile_predicate(rule.condition)
                    value = condition(None, RowContext(), evaluator)
                condition_true = sql_is_truthy(value)

        if not condition_true:
            return ConsiderationOutcome(
                rule=rule_name,
                condition_was_true=False,
                operations_performed=0,
            )

        operations_before = self.log.position
        try:
            for action in rule.actions:
                result = execute_statement(
                    self.database,
                    action,
                    provider=provider,
                    log=self.log,
                    config=self.config,
                )
                if result.kind == "select":
                    self.observables.append(
                        ObservableAction.select(
                            rule_name, result.query_result.rows
                        )
                    )
        except RollbackSignal as signal:
            self._rollback(rule_name, signal.message)
            return ConsiderationOutcome(
                rule=rule_name,
                condition_was_true=True,
                operations_performed=0,
                rolled_back=True,
            )

        return ConsiderationOutcome(
            rule=rule_name,
            condition_was_true=True,
            operations_performed=self.log.position - operations_before,
        )

    def _rollback(self, rule_name: str, message: str) -> None:
        self.database.restore(self._transaction_snapshot)
        self.observables.append(ObservableAction.rollback(rule_name, message))
        self._rolled_back = True
        if self.wal is not None:
            self.wal.abort(self._txn_id)
        # Advance every marker past the aborted suffix: the undone
        # primitives must not compose into any rule's next transition.
        # run() used to do this at quiescence, which left step-by-step
        # callers (the explorer, tests driving consider() directly)
        # seeing phantom pending transitions after a rollback — and a
        # begin_transaction() after such a rollback would re-trigger
        # rules from operations that never happened.
        self.mark_assertion_point()
        if self._rete is not None:
            # The restore rewrote the database underneath the network's
            # memories (the log is not truncated); rebuild lazily from
            # the restored state.
            self._rete.invalidate()

    @property
    def rolled_back(self) -> bool:
        return self._rolled_back

    # ------------------------------------------------------------------
    # Marker movement (the only writers of ``markers``)
    # ------------------------------------------------------------------

    def mark_considered(self, rule_name: str, position: int) -> None:
        """Record that *rule_name* was considered at log *position*.

        Its marker moves there, its pending transition restarts empty,
        and it leaves TR. Operations logged past *position* on its table
        are rechecked at the next refresh like any other write. The
        slice it held is dropped once no rule on its table holds the
        old marker.
        """
        marker = self.markers[rule_name]
        self.markers[rule_name] = position
        table = self.ruleset.rule(rule_name).table
        if (table, marker) in self._slices and not any(
            self.markers[rule.name] == marker
            for rule in self.ruleset.rules_by_table[table]
        ):
            del self._slices[table, marker]
        self._triggered.discard(rule_name)

    def mark_assertion_point(self) -> None:
        """Record that an assertion point was reached (quiescence or a
        rollback): every marker moves to the log end, so every pending
        transition and TR are empty."""
        position = self.log.position
        for name in self.markers:
            self.markers[name] = position
        self._slices.clear()
        self._triggered.clear()
        self._triggered_at = position

    # ------------------------------------------------------------------
    # The rule-processing loop (an assertion point)
    # ------------------------------------------------------------------

    def run(self) -> ProcessingResult:
        """Process rules at an assertion point until quiescence.

        Raises :class:`RuleProcessingLimitExceeded` past ``max_steps`` —
        callers treat that as possible nontermination.

        When processing completes, every rule's marker advances to the
        end of the log: Section 2 specifies that at the *next* assertion
        point a not-yet-considered rule is triggered by "the transition
        since the last rule assertion point", not since the start of the
        transaction. (During processing this advance is invisible — no
        rule is triggered at quiescence — but it changes what composes
        into the next assertion point's transitions.)
        """
        steps: list[ConsiderationOutcome] = []
        observables_before = len(self.observables)
        while True:
            eligible = self.eligible_rules()
            if not eligible:
                self.mark_assertion_point()
                outcome = "rolled_back" if self._rolled_back else "quiescent"
                return ProcessingResult(
                    outcome=outcome,
                    steps=steps,
                    observables=self.observables[observables_before:],
                )
            if len(steps) >= self.max_steps:
                raise RuleProcessingLimitExceeded(self.max_steps)
            chosen = self.strategy.choose(eligible)
            steps.append(self.consider(chosen, eligible=eligible))

    # ------------------------------------------------------------------
    # State identity and forking (used by the execution-graph explorer)
    # ------------------------------------------------------------------

    def _pending_canonical(self, rule_name: str) -> tuple:
        """Canonical *visible* pending transition, memoized per slice fold.

        Restricted to the rule's subscribed table: triggering checks and
        transition-table overlays both read only
        ``net_effect.table(rule.table)``, and everything else the rule
        can see (the database proper) is keyed separately, so pending
        writes on other tables are invisible to this rule's future
        behavior and must not block state merging.
        """
        rule = self.ruleset.rule(rule_name)
        pending = self._slice_for(rule)
        if pending.canonical is None:
            pending.canonical = pending.net.table(rule.table).canonical()
        return pending.canonical

    def state_key(self) -> tuple:
        """A hashable canonical key for the execution-graph state (D, TR).

        Includes the visible pending transition of *every* rule (not
        just the triggered ones): a pending-but-not-yet-triggering
        composite transition on the rule's own table influences future
        triggering, so states that differ there must not be merged.
        Execution orders that converge to the same database with the
        same visible pendings *do* merge (``explore()`` counts them in
        ``states_deduped``).

        Canonical fragments are memoized: per-table database canonicals
        carry across copy-on-write forks until the table is written, and
        pending canonicals per slice until a fold adds to it. Each
        fragment also keeps its hash
        (:class:`~repro.engine.values.CanonicalFragment`), so hashing the
        key is O(tables + rules), not O(rows).
        """
        pending = tuple(
            (rule.name, self._pending_canonical(rule.name))
            for rule in self.ruleset
        )
        return (self._rolled_back, self.database.canonical(), pending)

    def paper_state_key(self) -> tuple:
        """The paper's state ``S = (D, TR)`` — triggered rules only.

        Coarser than :meth:`state_key`: the paper's execution-graph
        states carry only the *triggered* rules and their transition
        tables. Untriggered rules' pending (non-triggering) composite
        transitions still influence future behavior at tuple
        granularity, so exploration dedups on the finer
        :meth:`state_key`; this key exists to validate paper-level
        claims (the Figure 1 commutativity diamond, state-identity in
        Lemmas 6.3/6.4).
        """
        triggered = self.triggered_rules()
        pending = tuple(
            (name, self._pending_canonical(name)) for name in triggered
        )
        return (self._rolled_back, self.database.canonical(), pending)

    def fork(self) -> "RuleProcessor":
        """An independent copy sharing the rule set (which is immutable
        during processing).

        O(tables + chunks + rules): the database copy is copy-on-write,
        the log aliases its sealed chunks, and the pending slices (net
        effects, transition tables, their indexes, canonical fragments)
        are shared with the child, diverging copy-on-write at the first
        fold that adds to them.
        """
        self.stats.forks += 1
        clone = RuleProcessor.__new__(RuleProcessor)
        clone.ruleset = self.ruleset
        clone.strategy = self.strategy
        clone.max_steps = self.max_steps
        clone.config = self.config
        clone.database = self.database.copy()
        clone.log = self.log.fork()
        clone._slices = {
            key: pending.fork() for key, pending in self._slices.items()
        }
        clone.markers = dict(self.markers)
        clone._triggered = set(self._triggered)
        clone._triggered_at = self._triggered_at
        clone.observables = list(self.observables)
        clone.stats = self.stats
        clone._column_names = self._column_names
        clone._transaction_snapshot = self._transaction_snapshot
        clone._rolled_back = self._rolled_back
        # Forks are exploratory: they never write to the durable log
        # (DeltaLog.fork() likewise drops the WAL sink).
        clone.wal = None
        clone._txn_id = self._txn_id
        clone._rete = (
            None
            if self._rete is None
            else self._rete.fork(clone.database, clone.log)
        )
        return clone
