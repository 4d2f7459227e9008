"""A declarative-semantics baseline: iterated per-stratum fixpoints.

Flesca/Greco give active-rule programs a stable-model-style declarative
semantics: partition the rules into strata along the (refined)
triggering graph, then compute one fixpoint per stratum, bottom up —
the outcome of a *stratified* program is the unique model this
iteration reaches, independent of any operational scheduling choice.
This module computes that outcome directly from the strata produced by
:class:`repro.analysis.stratification.StratificationAnalyzer`, giving
the repository an oracle that is **independent of the operational
runtime**: no :class:`~repro.runtime.processor.RuleProcessor`, no
marker dictionary, no consideration strategies, no match network, no
scheduler. What it shares with the runtime is only the storage/DML
substrate (tables, statements, net-effect folding) — the machinery
under test is re-derived, not reused.

How the fixpoints run
---------------------

The engine keeps, per rule, its own *pending transition*: the net
effect of every primitive logged since the rule last fired (or since
the start of the transaction). A rule is **enabled** when that pending
net effect intersects its Triggered-By set and no higher-priority
enabled rule exists (Section 3's ``Choose``). Each step fires the
enabled rule in the **lowest stratum** (ties broken by definition
order): stratum 0 runs to fixpoint before stratum 1 starts, and —
because refined-graph edges always point from lower to higher strata —
a stratified program never re-enables a completed stratum. For
inputs that are *not* stratified (the refined graph has cycles) the
iteration simply drops back to the re-enabled stratum, which keeps the
computation total and keeps a key containment property:

**Reachability.** Every rule this engine fires is, at that moment,
eligible under the operational semantics (enabled ∩ ``Choose``), so
the declarative run *is* one of the execution orders ``explore()``
enumerates. Hence the declarative outcome is always contained in the
reachable-final set; for stratified, confluence-certified programs the
reachable set is a singleton and the two semantics must agree exactly
(the property :mod:`repro.validate.crosscheck` asserts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.derived import DerivedDefinitions
from repro.analysis.stratification import (
    StratificationAnalysis,
    StratificationAnalyzer,
)
from repro.config import ExecutionConfig
from repro.engine import plan as P
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.query import DatabaseProvider, OverlayProvider
from repro.engine.values import sql_is_truthy
from repro.errors import RollbackSignal, RuleProcessingError
from repro.lang.parser import parse_statement
from repro.rules.ruleset import RuleSet
from repro.transitions.delta import DeltaLog
from repro.transitions.net_effect import NetEffect
from repro.transitions.transition_tables import transition_table_overlays

__all__ = [
    "DeclarativeEngine",
    "DeclarativeOutcome",
    "ProgramClassification",
    "classify_program",
    "declarative_outcome",
]

#: default firing budget before the engine reports non-quiescence
DEFAULT_MAX_FIRINGS = 20_000


@dataclass(frozen=True)
class ProgramClassification:
    """Where a rule program sits on the soundness boundary.

    ``stratified`` — the refined triggering graph is acyclic, so the
    per-stratum iteration is a genuine bottom-up fixpoint computation
    (Flesca/Greco's class). ``confluent`` — every execution order
    reaches the same final database (statically certified, or declared
    by a workload that is confluent by construction — the Section 6.1
    user-certification escape hatch). The differential contract:

    * stratified and confluent — the declarative outcome **equals**
      every reachable final;
    * otherwise — the declarative outcome is **contained in** the
      reachable-final set (it is itself a reachable final), nothing
      stronger.
    """

    stratified: bool
    confluent: bool
    strata: dict[str, int]
    analysis: StratificationAnalysis | None = None

    @property
    def label(self) -> str:
        if self.stratified and self.confluent:
            return "stratified-confluent"
        if self.stratified:
            return "stratified"
        return "unstratified"


def classify_program(
    ruleset: RuleSet, *, certified_confluent: bool | None = None
) -> ProgramClassification:
    """Stratify *ruleset* and settle its differential contract.

    ``certified_confluent`` short-circuits the pairwise confluence
    analysis: workloads whose construction guarantees a unique final
    (disjoint per-region write slices, idempotent absolute updates)
    pass ``True`` — the analyzer's Lemma 6.1 test is sound but too
    conservative to see slice-disjointness. ``None`` runs the static
    analysis (with refinements).
    """
    analysis = StratificationAnalyzer(DerivedDefinitions(ruleset)).analyze()
    stratified = not analysis.refined.cyclic_components()
    if certified_confluent is None:
        from repro.analysis.analyzer import RuleAnalyzer

        certified_confluent = RuleAnalyzer(
            ruleset, refine=True
        ).analyze_confluence().requirement_holds
    return ProgramClassification(
        stratified=stratified,
        confluent=bool(certified_confluent),
        strata=dict(analysis.strata),
        analysis=analysis,
    )


@dataclass
class DeclarativeOutcome:
    """What the per-stratum fixpoint iteration computed.

    ``status`` is ``"quiescent"`` (a fixpoint of every stratum was
    reached), ``"rolled_back"`` (a rule action rolled the transaction
    back — the declarative outcome is the pre-transaction state), or
    ``"nonterminating"`` (the firing budget ran out without reaching a
    fixpoint; ``final`` is ``None`` and nothing is asserted).
    """

    status: str
    final: tuple | None
    firings: int
    #: enabled-rule considerations whose condition was false (counted
    #: separately: they advance the rule's transition but write nothing)
    refutations: int
    #: completed per-stratum fixpoints, in completion order; a stratum
    #: re-entered after completing (unstratified inputs only) appears
    #: again
    stratum_fixpoints: tuple[int, ...] = ()
    #: rule names in firing order (the replayable witness that the
    #: declarative run is one of explore()'s execution orders)
    firing_sequence: tuple[str, ...] = ()

    @property
    def quiescent(self) -> bool:
        return self.status == "quiescent"


class _Pending:
    """One rule's pending transition under the declarative iteration:
    the net effect folded from the log suffix past its last firing."""

    __slots__ = ("position", "net")

    def __init__(self, position: int) -> None:
        self.position = position
        self.net = NetEffect()


class DeclarativeEngine:
    """Computes declarative outcomes over one database.

    The engine owns *database* (pass a copy to keep the original) and
    mutates it to the declarative outcome of each transaction. The
    ``config`` only selects the statement-execution path (planned by
    default, ``matching="naive"`` for interpreted evaluation) — there
    is deliberately no rete, scheduler, durability, or strategy knob:
    those are operational concerns this baseline exists to check.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        database: Database,
        *,
        strata: dict[str, int] | None = None,
        config: ExecutionConfig | None = None,
        max_firings: int = DEFAULT_MAX_FIRINGS,
    ) -> None:
        if ruleset.schema is not database.schema:
            raise RuleProcessingError(
                "rule set and database use different schemas"
            )
        self.ruleset = ruleset
        self.database = database
        if strata is None:
            strata = classify_program(
                ruleset, certified_confluent=False
            ).strata
        self.strata = {name.lower(): level for name, level in strata.items()}
        self.config = config or ExecutionConfig()
        self.max_firings = max_firings
        self._column_names = {
            table.name: table.column_names for table in ruleset.schema
        }
        #: definition order resolves stratum ties deterministically
        self._order = {name: i for i, name in enumerate(ruleset.names)}
        self.log = DeltaLog()
        self._pending: dict[str, _Pending] = {
            rule.name: _Pending(0) for rule in ruleset
        }

    # ------------------------------------------------------------------
    # Pending transitions and enablement
    # ------------------------------------------------------------------

    def _advance(self, rule_name: str) -> _Pending:
        pending = self._pending[rule_name]
        position = self.log.position
        if pending.position < position:
            pending.net = pending.net.fold(
                self.log.iter_range(pending.position, position)
            )
            pending.position = position
        return pending

    def _enabled_rules(self) -> tuple[str, ...]:
        """Triggered rules filtered by ``Choose`` (definition order)."""
        triggered = []
        for rule in self.ruleset:
            if not self.ruleset.is_active(rule.name):
                continue
            net = self._advance(rule.name).net
            operations = net.operations_for(
                rule.table, self._column_names[rule.table]
            )
            if operations & rule.triggered_by:
                triggered.append(rule.name)
        return self.ruleset.choose(triggered)

    def _next_rule(self, enabled: tuple[str, ...]) -> str:
        """The enabled rule in the lowest stratum (ties: definition)."""
        return min(
            enabled,
            key=lambda name: (
                self.strata.get(name, len(self.strata)),
                self._order[name],
            ),
        )

    # ------------------------------------------------------------------
    # Firing one rule
    # ------------------------------------------------------------------

    def _fire(self, rule_name: str) -> tuple[bool, bool]:
        """Fire one enabled rule; returns (wrote, rolled_back).

        Mirrors the *specification* of rule consideration (transition
        tables from the pending net effect, condition, actions; the
        pending transition resets before the actions run so the rule's
        own writes form its next transition) without reusing the
        runtime's implementation of it.
        """
        rule = self.ruleset.rule(rule_name)
        pending = self._advance(rule_name)
        overlays = transition_table_overlays(
            pending.net, rule.table, self._column_names[rule.table]
        )
        provider = OverlayProvider(DatabaseProvider(self.database), overlays)
        self._pending[rule_name] = _Pending(self.log.position)

        if rule.condition is not None:
            evaluator = Evaluator(provider, config=self.config)
            if self.config.matching == "naive":
                value = evaluator.evaluate(rule.condition, RowContext())
            else:
                predicate = P.compile_predicate(rule.condition)
                value = predicate(None, RowContext(), evaluator)
            if not sql_is_truthy(value):
                return False, False

        try:
            for action in rule.actions:
                execute_statement(
                    self.database,
                    action,
                    provider=provider,
                    log=self.log,
                    config=self.config,
                )
        except RollbackSignal:
            return True, True
        return True, False

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self, statements) -> DeclarativeOutcome:
        """Run user *statements* and iterate strata to a fixpoint.

        Accepts statement ASTs or source strings. Sequential calls model
        sequential transactions: each starts from the previous outcome
        with every pending transition empty (quiescence advances all of
        them past the log, matching Section 2's assertion-point rule).
        """
        snapshot = self.database.snapshot()
        for statement in statements:
            if isinstance(statement, str):
                statement = parse_statement(statement)
            execute_statement(
                self.database, statement, log=self.log, config=self.config
            )

        firings = 0
        refutations = 0
        sequence: list[str] = []
        fixpoints: list[int] = []
        active_stratum: int | None = None
        while True:
            enabled = self._enabled_rules()
            if not enabled:
                if active_stratum is not None:
                    fixpoints.append(active_stratum)
                self._quiesce_pendings()
                return DeclarativeOutcome(
                    status="quiescent",
                    final=self.database.canonical(),
                    firings=firings,
                    refutations=refutations,
                    stratum_fixpoints=tuple(fixpoints),
                    firing_sequence=tuple(sequence),
                )
            if firings + refutations >= self.max_firings:
                return DeclarativeOutcome(
                    status="nonterminating",
                    final=None,
                    firings=firings,
                    refutations=refutations,
                    stratum_fixpoints=tuple(fixpoints),
                    firing_sequence=tuple(sequence),
                )
            chosen = self._next_rule(enabled)
            stratum = self.strata.get(chosen, len(self.strata))
            if active_stratum is None:
                active_stratum = stratum
            elif stratum != active_stratum:
                # The previous stratum reached its fixpoint (stratified
                # inputs only move upward; a drop-back re-enters below).
                fixpoints.append(active_stratum)
                active_stratum = stratum
            wrote, rolled_back = self._fire(chosen)
            if rolled_back:
                self.database.restore(snapshot)
                self._quiesce_pendings()
                return DeclarativeOutcome(
                    status="rolled_back",
                    final=self.database.canonical(),
                    firings=firings + 1,
                    refutations=refutations,
                    stratum_fixpoints=tuple(fixpoints),
                    firing_sequence=tuple(sequence) + (chosen,),
                )
            if wrote:
                firings += 1
                sequence.append(chosen)
            else:
                refutations += 1

    def _quiesce_pendings(self) -> None:
        position = self.log.position
        for name in self._pending:
            self._pending[name] = _Pending(position)


def declarative_outcome(
    ruleset: RuleSet,
    database: Database,
    statements,
    *,
    strata: dict[str, int] | None = None,
    config: ExecutionConfig | None = None,
    max_firings: int = DEFAULT_MAX_FIRINGS,
) -> DeclarativeOutcome:
    """The declarative outcome of one transaction (database is copied)."""
    engine = DeclarativeEngine(
        ruleset,
        database.copy(),
        strata=strata,
        config=config,
        max_firings=max_firings,
    )
    return engine.transaction(statements)
