"""The registered lint passes (RPL001–RPL010).

Each pass is a function from a :class:`LintContext` to an iterable of
:class:`~repro.lint.diagnostics.Diagnostic`, registered under its
diagnostic code via :func:`lint_pass`. The runner in
:mod:`repro.lint` executes every registered pass and collates the
findings by severity.

The passes deliberately reuse the analysis substrate rather than
re-deriving it: RPL001 is Section 9 reachability
(:func:`repro.analysis.restricted.reachable_rules`), RPL002 consumes
the attribute-level ``Writes`` sets of
:mod:`repro.analysis.dataflow`, RPL003 rides on the
:class:`~repro.analysis.termination.TerminationAnalyzer`,
RPL007/RPL009/RPL010 share one layered
:class:`~repro.analysis.termination.TerminationReport` (critical mode,
cached on the context), and RPL006/RPL008 fold over the reference
resolution of :mod:`repro.analysis.scoping` that ``Reads`` folds over —
so what the linter reports is exactly what the analyses see (or
silently ignore).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

from repro.analysis.derived import DerivedDefinitions
from repro.analysis.restricted import reachable_rules
from repro.analysis.scoping import resolve_references
from repro.analysis.termination import (
    VERDICT_AUTO,
    VERDICT_WITNESS,
    TerminationAnalyzer,
    TerminationReport,
    build_termination_report,
)
from repro.lint.diagnostics import DIAGNOSTIC_CODES, Diagnostic
from repro.lint.folding import unsatisfiable
from repro.rules.events import all_events
from repro.rules.ruleset import RuleSet


@dataclass
class LintContext:
    """Everything a lint pass may consult."""

    ruleset: RuleSet
    definitions: DerivedDefinitions
    #: tables user transactions may touch; None = unrestricted (every
    #: table is an entry point, so RPL001 degrades to never firing)
    entry_tables: frozenset[str] | None = None
    #: rules the user has certified for termination (lint equivalent of
    #: the analyzer's certify_termination)
    certified_termination: frozenset[str] = frozenset()
    #: rule name -> 1-based line of its ``create rule`` in the source
    lines: dict[str, int] = field(default_factory=dict)
    #: the linted source text, when available; witnesses embed it so
    #: RPL010 findings replay standalone (``repro replay-witness``)
    source: str | None = None
    _termination_report: TerminationReport | None = field(
        default=None, repr=False
    )

    def termination_report(self) -> TerminationReport:
        """The layered critical-mode termination report, computed once
        and shared by the RPL007/RPL009/RPL010 passes."""
        if self._termination_report is None:
            self._termination_report = build_termination_report(
                self.ruleset,
                mode="critical",
                certified=tuple(sorted(self.certified_termination)),
                definitions=self.definitions,
                rules_source=self.source,
            )
        return self._termination_report

    def diagnostic(self, code: str, rule: str | None, message: str) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=DIAGNOSTIC_CODES[code].severity,
            rule=rule,
            message=message,
            line=self.lines.get(rule) if rule else None,
        )


#: code -> pass function, in registration (= code) order.
LINT_PASSES: dict[str, Callable[[LintContext], Iterable[Diagnostic]]] = {}


def lint_pass(code: str):
    if code not in DIAGNOSTIC_CODES:
        raise ValueError(f"unregistered diagnostic code {code!r}")

    def register(fn):
        LINT_PASSES[code] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# RPL001 — never-triggerable rules (Section 9 reachability)
# ----------------------------------------------------------------------


@lint_pass("RPL001")
def never_triggerable(ctx: LintContext) -> Iterator[Diagnostic]:
    """A rule outside the triggering-graph closure of the rules the
    declared entry tables can root is dead code: no user transaction
    and no rule action can ever trigger it."""
    schema = ctx.ruleset.schema
    if ctx.entry_tables is None:
        initial = all_events(schema)
    else:
        initial = frozenset(
            event
            for event in all_events(schema)
            if event.table in ctx.entry_tables
        )
    reachable = reachable_rules(ctx.definitions, initial)
    for name in ctx.definitions.rule_names:
        if name in reachable:
            continue
        entry = (
            ", ".join(sorted(ctx.entry_tables))
            if ctx.entry_tables is not None
            else "any table"
        )
        yield ctx.diagnostic(
            "RPL001",
            name,
            f"rule can never be triggered: no rule performs its "
            f"triggering events and user operations on {entry} "
            f"cannot reach it",
        )


# ----------------------------------------------------------------------
# RPL002 — dead writes
# ----------------------------------------------------------------------


@lint_pass("RPL002")
def dead_writes(ctx: LintContext) -> Iterator[Diagnostic]:
    """An updated column nobody reads and whose updates trigger no rule
    has no observable effect inside the rule program. (The table may of
    course be queried by applications — hence a warning, not an error.)

    Reads are judged at the coarse Section 3 granularity on purpose: a
    ``select *`` counts as reading every column, so the pass errs
    toward silence."""
    all_reads: set[tuple[str, str]] = set()
    triggering_updates: set[tuple[str, str]] = set()
    for name in ctx.definitions.rule_names:
        all_reads |= ctx.definitions.reads(name)
        for event in ctx.definitions.triggered_by(name):
            if event.kind == "U":
                triggering_updates.add((event.table, event.column))
    for name in ctx.definitions.rule_names:
        footprint = ctx.definitions.dataflow(name)
        dead = sorted(
            (write.table, write.column)
            for write in footprint.writes
            if write.kind == "U"
            and (write.table, write.column) not in all_reads
            and (write.table, write.column) not in triggering_updates
        )
        for table, column in dead:
            yield ctx.diagnostic(
                "RPL002",
                name,
                f"update of {table}.{column} is dead: no rule reads "
                f"the column and (U, {table}.{column}) triggers "
                f"nothing",
            )


# ----------------------------------------------------------------------
# RPL003 — self-triggering rules lacking termination certification
# ----------------------------------------------------------------------


@lint_pass("RPL003")
def uncertified_self_triggers(ctx: LintContext) -> Iterator[Diagnostic]:
    for name in ctx.definitions.rule_names:
        if name not in ctx.definitions.triggers(name):
            continue
        if name in ctx.certified_termination:
            continue
        events = sorted(
            str(event)
            for event in (
                ctx.definitions.performs(name)
                & ctx.definitions.triggered_by(name)
            )
        )
        yield ctx.diagnostic(
            "RPL003",
            name,
            f"rule triggers itself via {', '.join(events)} and has no "
            f"termination certification",
        )


# ----------------------------------------------------------------------
# RPL004 — unsatisfiable conditions
# ----------------------------------------------------------------------


@lint_pass("RPL004")
def unsatisfiable_conditions(ctx: LintContext) -> Iterator[Diagnostic]:
    for rule in ctx.ruleset:
        if rule.condition is None:
            continue
        proof = unsatisfiable(rule.condition)
        if proof is not None:
            yield ctx.diagnostic(
                "RPL004",
                rule.name,
                f"condition is unsatisfiable ({proof}): the action "
                f"can never execute",
            )


# ----------------------------------------------------------------------
# RPL005 — shadowed priority edges
# ----------------------------------------------------------------------


@lint_pass("RPL005")
def shadowed_priority_edges(ctx: LintContext) -> Iterator[Diagnostic]:
    """A declared ``precedes``/``follows`` edge already implied by the
    transitive closure of the *other* declared edges is redundant.
    (Cyclic priority declarations are rejected at parse time, so
    shadowing is the surviving edge pathology.)"""
    direct = ctx.ruleset.priorities.direct_pairs()
    adjacency: dict[str, set[str]] = {}
    for higher, lower in direct:
        adjacency.setdefault(higher, set()).add(lower)

    def reaches_without(start: str, goal: str, skip: tuple[str, str]) -> bool:
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            for successor in adjacency.get(node, ()):
                if (node, successor) == skip:
                    continue
                if successor == goal:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    for higher, lower in sorted(direct):
        if reaches_without(higher, lower, (higher, lower)):
            yield ctx.diagnostic(
                "RPL005",
                higher,
                f"priority edge {higher} > {lower} is shadowed: it is "
                f"already implied by the other declared orderings",
            )


# ----------------------------------------------------------------------
# RPL006 / RPL008 — column-reference resolution issues
# ----------------------------------------------------------------------


@lint_pass("RPL006")
def unknown_column_references(ctx: LintContext) -> Iterator[Diagnostic]:
    """Rule validation checks FROM tables and write targets, but not
    the columns referenced inside expressions; the read computation
    silently drops unresolvable references. Surface them."""
    schema = ctx.ruleset.schema
    for rule in ctx.ruleset:
        seen: set[str] = set()
        for fact in resolve_references(rule).columns:
            if fact.known:
                continue
            ref = fact.ref
            if not ref.table:
                message = (
                    f"unqualified column {ref.column!r} matches no "
                    f"table in scope"
                )
            elif not schema.has_table(fact.tables[0]):
                message = (
                    f"reference {ref.table}.{ref.column} resolves "
                    f"to unknown table {fact.tables[0]!r}"
                )
            else:
                message = (
                    f"reference {ref.table}.{ref.column}: table "
                    f"{fact.tables[0]!r} has no column {fact.column!r}"
                )
            if message not in seen:
                seen.add(message)
                yield ctx.diagnostic("RPL006", rule.name, message)


@lint_pass("RPL008")
def ambiguous_column_references(ctx: LintContext) -> Iterator[Diagnostic]:
    for rule in ctx.ruleset:
        seen: set[str] = set()
        for fact in resolve_references(rule).columns:
            if fact.ref.table or len(fact.tables) <= 1:
                continue
            tables = ", ".join(sorted(fact.tables))
            message = (
                f"unqualified column {fact.ref.column!r} is ambiguous: it "
                f"matches {tables}; the analysis charges reads of all "
                f"of them"
            )
            if message not in seen:
                seen.add(message)
                yield ctx.diagnostic("RPL008", rule.name, message)


# ----------------------------------------------------------------------
# RPL007 — suggested cycle certifications
# ----------------------------------------------------------------------


@lint_pass("RPL007")
def suggested_cycle_certifications(ctx: LintContext) -> Iterator[Diagnostic]:
    """Certification suggestions for cycles the layered analysis could
    NOT discharge. Components the stratified or critical-instance
    layers certify automatically fire RPL009 instead; here each
    suggestion names the analyzer that justifies it, the stratum the
    rule occupies in the refined-graph condensation, and which members
    remain entirely unjustified (the ones blocking auto-discharge)."""
    report = ctx.termination_report()
    analyzer = TerminationAnalyzer(ctx.definitions)
    for name in sorted(ctx.certified_termination):
        if name in ctx.definitions.rule_names:
            analyzer.certify_rule(name)
    for verdict in report.verdicts:
        if verdict.discharged:
            continue
        component = frozenset(verdict.component)
        members = "{" + ", ".join(sorted(component)) + "}"
        delete_only = analyzer.auto_certifiable_rules(component)
        monotonic = analyzer.auto_certifiable_monotonic_rules(component)
        unjustified = sorted(component - delete_only - monotonic)
        for name in sorted(delete_only | monotonic):
            justifying = []
            if name in delete_only:
                justifying.append("delete-only")
            if name in monotonic:
                justifying.append("monotonic-update")
            stratum = report.strata.get(name)
            where = f" (stratum {stratum})" if stratum is not None else ""
            remainder = (
                f"; {{{', '.join(unjustified)}}} still need manual "
                f"certification"
                if unjustified
                else ""
            )
            yield ctx.diagnostic(
                "RPL007",
                name,
                f"triggering cycle {members} is {verdict.label()}: "
                f"certifying {name}{where} is justified by the "
                f"{' and '.join(justifying)} analyzer{remainder}; pass "
                f"--certify-termination {name}",
            )


# ----------------------------------------------------------------------
# RPL009 — cycles the layered analysis discharges automatically
# ----------------------------------------------------------------------


@lint_pass("RPL009")
def auto_certified_cycles(ctx: LintContext) -> Iterator[Diagnostic]:
    """One NOTE per triggering cycle the layered termination analysis
    certifies without user help (replacing the RPL007 suggestion that
    the pre-layered linter would have emitted for it)."""
    report = ctx.termination_report()
    for verdict in report.verdicts:
        if verdict.verdict != VERDICT_AUTO:
            continue
        members = "{" + ", ".join(sorted(verdict.component)) + "}"
        stratum = (
            f" (stratum {verdict.stratum})"
            if verdict.stratum is not None
            else ""
        )
        detail = f": {verdict.detail}" if verdict.detail else ""
        yield ctx.diagnostic(
            "RPL009",
            min(verdict.component),
            f"triggering cycle {members} auto-certified by the "
            f"{verdict.analyzer} analyzer{stratum}{detail}; no "
            f"--certify-termination needed",
        )


# ----------------------------------------------------------------------
# RPL010 — replayable non-termination witnesses
# ----------------------------------------------------------------------


@lint_pass("RPL010")
def non_termination_witnesses(ctx: LintContext) -> Iterator[Diagnostic]:
    """One ERROR per cycle with a validated concrete looping run. The
    witness trace rides on the diagnostic (SARIF ``codeFlows``); the
    full witness — seed statements included — is in the analyzer's
    JSON report and replays via ``repro replay-witness``."""
    report = ctx.termination_report()
    for verdict in report.verdicts:
        if verdict.verdict != VERDICT_WITNESS or verdict.witness is None:
            continue
        witness = verdict.witness
        members = "{" + ", ".join(sorted(verdict.component)) + "}"
        anchor = (
            witness.cycle[0] if witness.cycle else min(verdict.component)
        )
        loop = " -> ".join(witness.cycle)
        diagnostic = ctx.diagnostic(
            "RPL010",
            anchor,
            f"rule processing does not terminate: cycle {members} has "
            f"a replayable {witness.kind} witness looping on [{loop}]; "
            f"replay it with `repro replay-witness`",
        )
        yield replace(diagnostic, trace=witness.trace)
