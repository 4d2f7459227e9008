"""The interactive analyzer facade.

The paper positions its algorithms as "the basis of an interactive
development environment for rule programmers": analyze → inspect the
isolated problems → certify commutativity / certify cycle progress /
add priorities → re-analyze. :class:`RuleAnalyzer` is that loop as an
API, holding the user's accumulated certifications and priority edits
across re-analyses.

Since the engine redesign, every re-analysis is served from one shared
:class:`~repro.analysis.engine.AnalysisEngine`: Lemma 6.1 pair verdicts
and Definition 6.5 per-pair confluence verdicts are memoized and
invalidated precisely on certify/revoke/priority-edit/rule-edit, so the
analyze → repair → re-analyze loop re-judges only what an edit could
have changed.

Typical use::

    analyzer = RuleAnalyzer(ruleset)
    report = analyzer.analyze()
    if not report.confluent:
        for violation in report.confluence.violations:
            print(violation.describe())
        analyzer.certify_commutes("audit_a", "audit_b")
        analyzer.add_priority("deduct", "refill")
        report = analyzer.analyze()
    print(report.to_dict())          # machine-consumable verdicts
    print(analyzer.engine.stats.to_dict())  # memo hits, pairs, timings
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.analysis.confluence import (
    ConfluenceAnalysis,
    ConfluenceViolation,
)
from repro.analysis.commutativity import NoncommutativityReason
from repro.analysis.corollaries import (
    CorollaryViolation,
    check_corollary_6_8,
    check_corollary_6_10,
    check_corollary_8_2,
)
from repro.analysis.engine import AnalysisEngine
from repro.analysis.observable import ObservableDeterminismAnalysis
from repro.analysis.partial_confluence import PartialConfluenceAnalysis
from repro.analysis.termination import (
    TerminationAnalysis,
    TerminationReport,
    build_termination_report,
)
from repro.rules.ruleset import RuleSet

#: Version tag of the ``AnalysisReport.to_dict`` schema.
# 2: added the optional "termination_report" section (layered
# stratified/critical-instance verdicts); version-1 payloads load fine.
REPORT_SCHEMA_VERSION = 2


@dataclass
class AnalysisReport:
    """The combined verdicts for one analysis pass.

    Beyond the three core analyses, a report can carry
    partial-confluence verdicts (one per requested table group), a
    snapshot of the engine's cache/judgment counters, and the wall-clock
    per phase of this pass. :meth:`to_dict` / :meth:`from_dict` give a
    stable machine-consumable round-trip of all of it.
    """

    termination: TerminationAnalysis
    confluence: ConfluenceAnalysis
    observable_determinism: ObservableDeterminismAnalysis
    #: partial-confluence verdicts keyed by the (frozen) table group
    partial_confluence: dict[frozenset[str], PartialConfluenceAnalysis] = (
        field(default_factory=dict)
    )
    #: snapshot of the engine's cumulative counters (plain dict)
    stats: dict[str, Any] | None = None
    #: wall-clock seconds per phase of this analysis pass
    timings: dict[str, float] = field(default_factory=dict)
    #: layered per-cycle verdicts (``--termination stratified|critical``);
    #: None when the pass ran in plain Theorem-5.1 mode
    termination_report: TerminationReport | None = None

    @property
    def terminates(self) -> bool:
        if self.termination_report is not None:
            return self.termination_report.terminates
        return self.termination.guaranteed

    @property
    def confluent(self) -> bool:
        """Theorem 6.7's combined verdict (layered termination counts)."""
        return self.confluence.confluent(self.terminates)

    @property
    def observably_deterministic(self) -> bool:
        """Theorem 8.1's combined verdict (layered termination counts)."""
        return (
            self.observable_determinism.confluence.requirement_holds
            and self.terminates
        )

    def summary(self) -> str:
        termination_line = (
            self.termination_report.describe()
            if self.termination_report is not None
            else self.termination.describe()
        )
        lines = [
            f"termination:            {termination_line}",
            f"confluence:             {self.confluence.describe()}",
            f"observable determinism: {self.observable_determinism.describe()}",
        ]
        for tables in sorted(self.partial_confluence, key=sorted):
            analysis = self.partial_confluence[tables]
            lines.append(f"partial confluence:     {analysis.describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Machine-consumable serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A stable, JSON-serializable rendering of the full report.

        Sets are rendered as sorted lists and dict sections in sorted
        key order, so equal reports serialize identically (and the
        round-trip ``from_dict(d).to_dict() == d`` holds).
        """
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "verdicts": {
                "terminates": self.terminates,
                "confluent": self.confluent,
                "observably_deterministic": self.observably_deterministic,
            },
            "termination": _termination_to_dict(self.termination),
            "confluence": _confluence_to_dict(self.confluence),
            "observable_determinism": {
                "observable_rules": sorted(
                    self.observable_determinism.observable_rules
                ),
                "significant": sorted(self.observable_determinism.significant),
                "termination": _termination_to_dict(
                    self.observable_determinism.termination
                ),
                "confluence": _confluence_to_dict(
                    self.observable_determinism.confluence
                ),
            },
            "partial_confluence": [
                {
                    "tables": sorted(analysis.tables),
                    "significant": sorted(analysis.significant),
                    "confluent_with_respect_to_tables": (
                        analysis.confluent_with_respect_to_tables
                    ),
                    "termination": _termination_to_dict(analysis.termination),
                    "confluence": _confluence_to_dict(analysis.confluence),
                }
                for __, analysis in sorted(
                    self.partial_confluence.items(),
                    key=lambda item: sorted(item[0]),
                )
            ],
            "stats": self.stats,
            "timings": {
                phase: self.timings[phase] for phase in sorted(self.timings)
            },
            "termination_report": (
                self.termination_report.to_dict()
                if self.termination_report is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        """Rebuild a report from :meth:`to_dict` output.

        The verdict structure round-trips exactly; the in-memory-only
        ``TriggeringGraph`` handle on termination analyses is not
        serialized and comes back as ``None``.
        """
        od = data["observable_determinism"]
        return cls(
            termination=_termination_from_dict(data["termination"]),
            confluence=_confluence_from_dict(data["confluence"]),
            observable_determinism=ObservableDeterminismAnalysis(
                observable_rules=frozenset(od["observable_rules"]),
                significant=frozenset(od["significant"]),
                termination=_termination_from_dict(od["termination"]),
                confluence=_confluence_from_dict(od["confluence"]),
            ),
            partial_confluence={
                frozenset(entry["tables"]): PartialConfluenceAnalysis(
                    tables=frozenset(entry["tables"]),
                    significant=frozenset(entry["significant"]),
                    termination=_termination_from_dict(entry["termination"]),
                    confluence=_confluence_from_dict(entry["confluence"]),
                )
                for entry in data.get("partial_confluence", [])
            },
            stats=data.get("stats"),
            timings=dict(data.get("timings", {})),
            termination_report=(
                TerminationReport.from_dict(data["termination_report"])
                if data.get("termination_report") is not None
                else None
            ),
        )


# ----------------------------------------------------------------------
# Serialization helpers (shared by the nested analyses)
# ----------------------------------------------------------------------


def _termination_to_dict(analysis: TerminationAnalysis) -> dict:
    return {
        "guaranteed": analysis.guaranteed,
        "cyclic_components": sorted(
            (sorted(component) for component in analysis.cyclic_components),
        ),
        "uncertified_components": sorted(
            (sorted(component) for component in analysis.uncertified_components),
        ),
        "certified_rules": sorted(analysis.certified_rules),
        "auto_certifiable": [
            {"component": component, "rules": sorted(rules)}
            for component, rules in sorted(
                (
                    (sorted(component), rules)
                    for component, rules in analysis.auto_certifiable.items()
                ),
            )
        ],
    }


def _termination_from_dict(data: dict) -> TerminationAnalysis:
    return TerminationAnalysis(
        guaranteed=data["guaranteed"],
        cyclic_components=[
            frozenset(component) for component in data["cyclic_components"]
        ],
        uncertified_components=[
            frozenset(component)
            for component in data["uncertified_components"]
        ],
        certified_rules=frozenset(data["certified_rules"]),
        auto_certifiable={
            frozenset(entry["component"]): frozenset(entry["rules"])
            for entry in data["auto_certifiable"]
        },
        graph=None,
    )


def _confluence_to_dict(analysis: ConfluenceAnalysis) -> dict:
    return {
        "requirement_holds": analysis.requirement_holds,
        "pairs_examined": analysis.pairs_examined,
        "universe": sorted(analysis.universe),
        "violations": [
            {
                "pair_first": violation.pair_first,
                "pair_second": violation.pair_second,
                "r1_member": violation.r1_member,
                "r2_member": violation.r2_member,
                "r1_set": sorted(violation.r1_set),
                "r2_set": sorted(violation.r2_set),
                "reasons": [
                    {
                        "condition": reason.condition,
                        "first": reason.first,
                        "second": reason.second,
                        "detail": reason.detail,
                    }
                    for reason in violation.reasons
                ],
            }
            for violation in analysis.violations
        ],
    }


def _confluence_from_dict(data: dict) -> ConfluenceAnalysis:
    return ConfluenceAnalysis(
        requirement_holds=data["requirement_holds"],
        violations=[
            ConfluenceViolation(
                pair_first=violation["pair_first"],
                pair_second=violation["pair_second"],
                r1_member=violation["r1_member"],
                r2_member=violation["r2_member"],
                r1_set=frozenset(violation["r1_set"]),
                r2_set=frozenset(violation["r2_set"]),
                reasons=tuple(
                    NoncommutativityReason(
                        condition=reason["condition"],
                        first=reason["first"],
                        second=reason["second"],
                        detail=reason["detail"],
                    )
                    for reason in violation["reasons"]
                ),
            )
            for violation in data["violations"]
        ],
        pairs_examined=data["pairs_examined"],
        universe=frozenset(data["universe"]),
    )


class RuleAnalyzer:
    """Stateful analysis session over one rule set.

    All options are keyword-only. ``refine=True`` turns on the automatic
    special-case commutativity refinements (both of Lemma 6.1's
    "actually commute" examples are then discharged without user
    certification — see
    :class:`~repro.analysis.commutativity.CommutativityAnalyzer`).
    An existing :class:`AnalysisEngine` can be supplied to share memo
    state (used by :meth:`analyze_restricted`).
    """

    def __init__(
        self,
        ruleset: RuleSet,
        *,
        refine: bool = False,
        granularity: str = "column",
        column_dataflow: bool = False,
        engine: AnalysisEngine | None = None,
    ) -> None:
        if engine is None:
            engine = AnalysisEngine(
                ruleset,
                refine=refine,
                granularity=granularity,
                column_dataflow=column_dataflow,
            )
        self.engine = engine
        self.refine = engine.refine
        self.column_dataflow = engine.column_dataflow

    # ------------------------------------------------------------------
    # Engine-backed component access (backward-compatible attributes)
    # ------------------------------------------------------------------

    @property
    def ruleset(self) -> RuleSet:
        return self.engine.ruleset

    @property
    def definitions(self):
        return self.engine.definitions

    @property
    def commutativity(self):
        return self.engine.commutativity

    @property
    def termination_analyzer(self):
        return self.engine.termination_analyzer

    # ------------------------------------------------------------------
    # User interaction: certifications, priority edits, rule edits
    # ------------------------------------------------------------------

    def certify_commutes(self, first: str, second: str) -> None:
        """Declare that two rules that appear noncommutative by Lemma 6.1
        actually commute (Section 6.1's user escape hatch)."""
        self.engine.certify_commutes(first, second)

    def revoke_certification(self, first: str, second: str) -> bool:
        return self.engine.revoke_certification(first, second)

    def certify_termination(self, rule: str) -> None:
        """Declare that cycles through *rule* make progress (its
        condition eventually false or action eventually a no-op) —
        Section 5's interactive cycle certification."""
        self.engine.certify_termination(rule)

    def add_priority(self, higher: str, lower: str) -> None:
        """Add a priority ordering (as if editing precedes/follows)."""
        self.engine.add_priority(higher, lower)

    def remove_priority(self, higher: str, lower: str) -> bool:
        return self.engine.remove_priority(higher, lower)

    def replace_ruleset(self, ruleset: RuleSet) -> frozenset[str]:
        """Swap in an edited rule set; the engine diffs per-rule content
        fingerprints and keeps every memo entry the edit cannot have
        affected. Returns the changed rule names."""
        return self.engine.update_ruleset(ruleset)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def analyze_termination(self) -> TerminationAnalysis:
        return self.engine.analyze_termination()

    def analyze_confluence(self) -> ConfluenceAnalysis:
        return self.engine.analyze_confluence()

    def analyze_partial_confluence(
        self, tables: Iterable[str]
    ) -> PartialConfluenceAnalysis:
        return self.engine.analyze_partial_confluence(tables)

    def analyze_observable_determinism(self) -> ObservableDeterminismAnalysis:
        return self.engine.analyze_observable_determinism()

    def analyze(
        self,
        *,
        tables: Iterable[Iterable[str]] = (),
        termination_mode: str | None = None,
        rules_source: str | None = None,
    ) -> AnalysisReport:
        """Run all three analyses (plus partial confluence for each
        group in *tables*) and bundle the verdicts with engine stats.

        *termination_mode* ``"stratified"`` or ``"critical"`` attaches a
        layered :class:`TerminationReport` whose per-cycle verdicts then
        drive the report's ``terminates`` property (``"tg"``/None keeps
        the plain Theorem 5.1 verdict). *rules_source* is embedded in
        any non-termination witness so it replays standalone."""
        timings: dict[str, float] = {}

        def timed(phase, thunk):
            start = time.perf_counter()
            result = thunk()
            timings[phase] = time.perf_counter() - start
            return result

        termination = timed("termination", self.analyze_termination)
        layered: TerminationReport | None = None
        if termination_mode not in (None, "tg"):
            layered = timed(
                f"termination[{termination_mode}]",
                lambda: build_termination_report(
                    self.ruleset,
                    mode=termination_mode,
                    certified=tuple(
                        self.engine.termination_analyzer.certified_rules
                    ),
                    definitions=self.definitions,
                    rules_source=rules_source,
                ),
            )
        confluence = timed("confluence", self.analyze_confluence)
        observable = timed("observable", self.analyze_observable_determinism)
        partial: dict[frozenset[str], PartialConfluenceAnalysis] = {}
        for group in tables:
            group_list = [table for table in group]
            analysis = timed(
                f"partial[{','.join(sorted(group_list))}]",
                lambda g=group_list: self.analyze_partial_confluence(g),
            )
            partial[analysis.tables] = analysis
        stats = self.engine.stats.to_dict()
        stats["pair_pruning"] = timed(
            "pair_pruning", self.engine.pair_pruning_counts
        )
        return AnalysisReport(
            termination=termination,
            confluence=confluence,
            observable_determinism=observable,
            partial_confluence=partial,
            stats=stats,
            timings=timings,
            termination_report=layered,
        )

    def analyze_restricted(
        self, initial_operations, *, tables: Iterable[Iterable[str]] = ()
    ) -> AnalysisReport:
        """Analyze under restricted user operations (Section 9).

        Only the rules reachable in the triggering graph from rules
        triggered by *initial_operations* (an iterable of
        :class:`~repro.rules.events.TriggerEvent`) can ever be
        considered; the analyses run on that subset. The session's
        certifications, priority edits, *and memo state* carry over: the
        sub-analyzer shares this engine's raw Lemma 6.1 memo and stats
        instead of re-judging the restricted pairs from scratch.
        """
        return self.restricted_session(initial_operations).analyze(
            tables=tables
        )

    def restricted_session(self, initial_operations) -> "RuleAnalyzer":
        """The restricted sub-session itself, for callers that want to
        keep interacting with it (certify, re-analyze, ...)."""
        from repro.analysis.restricted import reachable_rules

        reachable = reachable_rules(self.definitions, initial_operations)
        sub_engine = self.engine.restrict(reachable)
        return RuleAnalyzer(sub_engine.ruleset, engine=sub_engine)

    # ------------------------------------------------------------------
    # Corollary checks (internal consistency / developer guidelines)
    # ------------------------------------------------------------------

    def corollary_violations(self) -> list[CorollaryViolation]:
        """Corollaries 6.8 and 6.10 must hold whenever our confluence
        analysis accepts; 8.2 whenever observable determinism is
        accepted. Returns any counterexamples found (should be empty for
        accepted rule sets — the property tests rely on this)."""
        violations: list[CorollaryViolation] = []
        report = self.analyze()
        if report.confluent:
            violations.extend(
                check_corollary_6_8(
                    self.definitions, self.ruleset.priorities, self.commutativity
                )
            )
            violations.extend(
                check_corollary_6_10(self.definitions, self.ruleset.priorities)
            )
        if report.observably_deterministic:
            violations.extend(
                check_corollary_8_2(self.definitions, self.ruleset.priorities)
            )
        return violations

    # ------------------------------------------------------------------
    # Automated repair loop (programmatic version of Section 6.4)
    # ------------------------------------------------------------------

    def repair_confluence(
        self,
        oracle_commutes=None,
        max_rounds: int = 100,
    ) -> tuple[ConfluenceAnalysis, list[str]]:
        """Iteratively repair non-confluence, recording each action.

        For every violation round: if ``oracle_commutes(r1, r2)`` says
        the witness pair actually commutes, certify it (Approach 1);
        otherwise order the responsible unordered pair (Approach 2).
        ``oracle_commutes`` defaults to never-commutes (pure ordering).

        Returns the final analysis and the log of actions taken — the
        log length exhibits the paper's "non-confluence moves around"
        iteration when orderings surface new violating pairs. Each
        round's re-analysis is served from the engine memo: only pair
        verdicts the previous action could have changed are re-judged.
        """
        actions: list[str] = []
        for _round in range(max_rounds):
            analysis = self.analyze_confluence()
            if analysis.requirement_holds:
                return analysis, actions
            violation = analysis.violations[0]
            pair = (violation.r1_member, violation.r2_member)
            if oracle_commutes is not None and oracle_commutes(*pair):
                self.certify_commutes(*pair)
                actions.append(f"certify({pair[0]}, {pair[1]})")
                continue
            higher, lower = violation.pair_first, violation.pair_second
            self.add_priority(higher, lower)
            actions.append(f"order({higher} > {lower})")
        return self.analyze_confluence(), actions
