"""Partial confluence — Section 7.

Confluence w.r.t. a table subset ``T'``: all final states agree on the
contents of the tables in ``T'`` (scratch tables may diverge).

Definition 7.1 computes the *significant* rules::

    Sig(T') ← {r ∈ R | (I,t), (D,t) or (U,t.c) ∈ Performs(r), t ∈ T'}
    repeat until unchanged:
        Sig(T') ← Sig(T') ∪ {r ∈ R | ∃ r' ∈ Sig(T'), r and r' do not commute}

Theorem 7.2: if the Confluence Requirement (Definition 6.5) holds for
the rules in ``Sig(T')`` and ``Sig(T')`` on its own is guaranteed to
terminate, then ``R`` is confluent with respect to ``T'``.

Commutativity here uses the same conservative Lemma 6.1 conditions (plus
user certifications), so certifying pairs shrinks ``Sig(T')`` — exactly
the user lever the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.confluence import ConfluenceAnalysis, ConfluenceAnalyzer
from repro.analysis.derived import DerivedDefinitions
from repro.analysis.termination import TerminationAnalysis, TerminationAnalyzer
from repro.rules.priorities import PriorityRelation


def significant_rules(
    definitions: DerivedDefinitions,
    commutativity: CommutativityAnalyzer,
    tables: Iterable[str],
) -> frozenset[str]:
    """``Sig(T')`` per Definition 7.1.

    Sig grows in definition order (an insertion-ordered dict, not a
    set), so the sequence of ``commute`` questions, and with it the
    engine's memo counters, does not depend on string hashing.
    """
    wanted = {table.lower() for table in tables}
    significant: dict[str, None] = {
        name: None
        for name in definitions.rule_names
        if any(event.table in wanted for event in definitions.performs(name))
    }
    changed = True
    while changed:
        changed = False
        for name in definitions.rule_names:
            if name in significant:
                continue
            if any(
                not commutativity.commute(name, member)
                for member in significant
            ):
                significant[name] = None
                changed = True
    return frozenset(significant)


@dataclass
class PartialConfluenceAnalysis:
    """Theorem 7.2's two obligations and the combined verdict."""

    tables: frozenset[str]
    significant: frozenset[str]
    termination: TerminationAnalysis
    confluence: ConfluenceAnalysis

    @property
    def confluent_with_respect_to_tables(self) -> bool:
        return self.confluence.requirement_holds and self.termination.guaranteed

    def describe(self) -> str:
        tables = ", ".join(sorted(self.tables))
        if self.confluent_with_respect_to_tables:
            return (
                f"confluent with respect to {{{tables}}} "
                f"(Sig = {{{', '.join(sorted(self.significant))}}})"
            )
        problems = []
        if not self.termination.guaranteed:
            problems.append("Sig may not terminate")
        if not self.confluence.requirement_holds:
            problems.append(
                f"{len(self.confluence.violations)} commutativity violations"
            )
        return (
            f"may not be confluent with respect to {{{tables}}}: "
            + "; ".join(problems)
        )


class PartialConfluenceAnalyzer:
    """Runs the Theorem 7.2 pipeline for a given ``T'``.

    Without an *engine* this is the memo-free reference path: it
    re-judges every pair on every call. When an *engine* is supplied,
    the Definition 6.5 confluence step over ``Sig(T')`` is served from
    the engine's memoized pair verdicts.
    """

    def __init__(
        self,
        definitions: DerivedDefinitions,
        priorities: PriorityRelation,
        commutativity: CommutativityAnalyzer | None = None,
        termination_analyzer: TerminationAnalyzer | None = None,
        *,
        engine=None,
    ) -> None:
        self.definitions = definitions
        self.priorities = priorities
        self.commutativity = commutativity or CommutativityAnalyzer(definitions)
        self.termination_analyzer = termination_analyzer or TerminationAnalyzer(
            definitions
        )
        self.engine = engine

    def analyze(self, tables: Iterable[str]) -> PartialConfluenceAnalysis:
        """Partial confluence with respect to *tables*; an unknown table
        raises :class:`~repro.errors.SchemaError`."""
        schema = self.definitions.ruleset.schema
        wanted = frozenset(schema.table(table).name for table in tables)
        significant = significant_rules(
            self.definitions, self.commutativity, wanted
        )

        termination = self._terminates_on_their_own(significant)

        if self.engine is not None:
            confluence = self.engine.analyze_confluence(universe=significant)
        else:
            confluence = ConfluenceAnalyzer(
                self.definitions, self.priorities, self.commutativity
            ).analyze(universe=significant)

        return PartialConfluenceAnalysis(
            tables=wanted,
            significant=significant,
            termination=termination,
            confluence=confluence,
        )

    def _terminates_on_their_own(
        self, significant: frozenset[str]
    ) -> TerminationAnalysis:
        """Termination of ``Sig(T')`` processed on its own (footnote 7):
        the triggering graph restricted to the significant rules, with
        the certifications already granted to the full-set analyzer."""
        full = self.termination_analyzer
        certified = full.certified_rules
        reduced = full.graph.restricted_to(significant)
        uncertified = reduced.restricted_to(significant - certified)
        uncertified_components = uncertified.cyclic_components()
        return TerminationAnalysis(
            guaranteed=not uncertified_components,
            cyclic_components=reduced.cyclic_components(),
            uncertified_components=uncertified_components,
            certified_rules=certified,
            graph=reduced,
        )
