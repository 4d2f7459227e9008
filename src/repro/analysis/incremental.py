"""Incremental analysis (Section 9 future work, implemented).

"In many cases it is clear that most results of previous analysis are
still valid and only incremental additional analysis needs to be
performed. At the coarsest level, most rule applications can be
partitioned into groups of rules such that, across partitions, rules
reference different sets of tables and have no priority ordering. ...
analysis can be applied separately to each partition, and it needs to
be repeated for a partition only when rules in that partition change."

:class:`IncrementalAnalyzer` maintains a rule application as editable
sources, partitions it (see :mod:`repro.analysis.partitioning`), and
caches per-partition analysis results keyed by a content fingerprint.
Editing one rule re-analyzes only the partitions whose fingerprints
changed (usually one).

Why per-partition results combine soundly:

* **Termination** — a ``Triggers`` edge implies a shared table, so the
  triggering graph never crosses partitions: global acyclicity is the
  conjunction of per-partition acyclicity.
* **Confluence** — an unordered cross-partition pair shares no tables
  and no triggering, so none of Lemma 6.1's conditions can fire: every
  cross-partition pair commutes, and Definition 6.5 reduces to the
  per-partition checks.
* **Observable determinism** — *not* table-local: two observable rules
  in different partitions interleave their observable actions even
  though they "have no effect on each other". Under the Obs reduction,
  such a pair is noncommutative and (being cross-partition) necessarily
  unordered, so global observable determinism requires, beyond the
  per-partition analyses, that at most one partition contains
  observable rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.confluence import ConfluenceAnalysis
from repro.analysis.derived import DerivedDefinitions
from repro.analysis.engine import AnalysisEngine
from repro.analysis.observable import ObservableDeterminismAnalysis
from repro.analysis.partitioning import partition_rules
from repro.analysis.termination import TerminationAnalysis
from repro.errors import AnalysisError, RuleError
from repro.lang.parser import parse_rule
from repro.lang.pretty import format_rule
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import Schema


@dataclass
class PartitionResult:
    """Cached analysis of one partition."""

    fingerprint: tuple
    rules: frozenset[str]
    termination: TerminationAnalysis
    confluence: ConfluenceAnalysis
    observable: ObservableDeterminismAnalysis
    observable_rules: frozenset[str]


@dataclass
class IncrementalReport:
    """Combined verdicts plus re-analysis accounting."""

    terminates: bool
    confluent: bool
    observably_deterministic: bool
    partitions: list[PartitionResult] = field(default_factory=list)
    partitions_reanalyzed: int = 0
    partitions_reused: int = 0
    #: partitions (by rule sets) holding observable rules — more than one
    #: defeats observable determinism regardless of per-partition results
    observable_partitions: list[frozenset[str]] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"partitions={len(self.partitions)} "
            f"(reanalyzed {self.partitions_reanalyzed}, reused "
            f"{self.partitions_reused}); terminates={self.terminates}, "
            f"confluent={self.confluent}, observably deterministic="
            f"{self.observably_deterministic}"
        )


class IncrementalAnalyzer:
    """An editable rule application with cached per-partition analysis."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._sources: dict[str, str] = {}
        self._cache: dict[tuple, PartitionResult] = {}
        self._certified_commutes: set[frozenset[str]] = set()
        self._certified_termination: set[str] = set()
        self._extra_priorities: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------

    def define_rule(self, source: str) -> str:
        """Add or replace a rule from source text; returns its name."""
        definition = parse_rule(source)
        Rule(definition, self.schema)  # validate eagerly
        name = definition.name.lower()
        self._sources[name] = format_rule(definition)
        return name

    def remove_rule(self, name: str) -> None:
        name = name.lower()
        if name not in self._sources:
            raise RuleError(f"unknown rule {name!r}")
        del self._sources[name]
        self._certified_termination.discard(name)
        self._certified_commutes = {
            pair for pair in self._certified_commutes if name not in pair
        }
        self._extra_priorities = {
            pair for pair in self._extra_priorities if name not in pair
        }

    def certify_commutes(self, first: str, second: str) -> None:
        """An unknown rule raises :class:`AnalysisError`, as
        :meth:`AnalysisEngine.certify_commutes` does."""
        self._certified_commutes.add(
            frozenset({self._known(first), self._known(second)})
        )

    def certify_termination(self, rule: str) -> None:
        """An unknown rule raises :class:`AnalysisError`."""
        self._certified_termination.add(self._known(rule))

    def add_priority(self, higher: str, lower: str) -> None:
        """Add ``higher > lower``; an unknown rule or an ordering that
        closes a cycle raises what :meth:`RuleSet.add_priority` raises
        (:class:`RuleError`, :class:`PriorityCycleError`) and records
        nothing."""
        self.build_ruleset().add_priority(higher, lower)
        self._extra_priorities.add((higher.lower(), lower.lower()))

    def _known(self, rule: str) -> str:
        name = rule.lower()
        if name not in self._sources:
            raise AnalysisError(f"unknown rule {name!r}")
        return name

    @property
    def rule_names(self) -> tuple[str, ...]:
        return tuple(self._sources)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def build_ruleset(self) -> RuleSet:
        ruleset = RuleSet.parse("\n\n".join(self._sources.values()), self.schema)
        for higher, lower in sorted(self._extra_priorities):
            ruleset.add_priority(higher, lower)
        return ruleset

    def analyze(self) -> IncrementalReport:
        """Analyze all partitions, reusing cached results when possible."""
        ruleset = self.build_ruleset()
        definitions = DerivedDefinitions(ruleset)
        partitions = partition_rules(definitions, ruleset.priorities)

        report = IncrementalReport(
            terminates=True, confluent=True, observably_deterministic=True
        )
        fresh_cache: dict[tuple, PartitionResult] = {}

        for partition in partitions:
            fingerprint = self._fingerprint(partition, ruleset)
            cached = self._cache.get(fingerprint)
            if cached is not None:
                result = cached
                report.partitions_reused += 1
            else:
                result = self._analyze_partition(
                    partition, fingerprint, ruleset
                )
                report.partitions_reanalyzed += 1
            fresh_cache[fingerprint] = result
            report.partitions.append(result)

            report.terminates &= result.termination.guaranteed
            report.confluent &= result.confluence.requirement_holds
            report.observably_deterministic &= (
                result.observable.confluence.requirement_holds
            )
            if result.observable_rules:
                report.observable_partitions.append(result.rules)

        # Cross-cutting obligations.
        report.confluent &= report.terminates  # Theorem 6.7
        # Theorem 8.1 needs full-R termination, and observable actions
        # from two independent partitions interleave nondeterministically.
        report.observably_deterministic &= report.terminates
        if len(report.observable_partitions) > 1:
            report.observably_deterministic = False

        self._cache = fresh_cache  # drop entries for vanished partitions
        return report

    # ------------------------------------------------------------------

    def _fingerprint(self, partition: frozenset[str], ruleset: RuleSet) -> tuple:
        """Content hash of everything a partition's analysis depends on."""
        sources = tuple(
            (name, self._sources[name]) for name in sorted(partition)
        )
        priorities = tuple(
            sorted(
                (higher, lower)
                for higher, lower in ruleset.priorities.pairs()
                if higher in partition and lower in partition
            )
        )
        certifications = tuple(
            sorted(
                tuple(sorted(pair))
                for pair in self._certified_commutes
                if pair <= partition
            )
        )
        certified_termination = tuple(
            sorted(self._certified_termination & partition)
        )
        return (sources, priorities, certifications, certified_termination)

    def _analyze_partition(
        self,
        partition: frozenset[str],
        fingerprint: tuple,
        ruleset: RuleSet,
    ) -> PartitionResult:
        subset = ruleset.subset(partition)
        engine = AnalysisEngine(subset)
        for pair in self._certified_commutes:
            if pair <= partition:
                first, second = sorted(pair)
                engine.certify_commutes(first, second)
        for rule in self._certified_termination & partition:
            engine.certify_termination(rule)

        termination = engine.analyze_termination()
        confluence = engine.analyze_confluence()
        observable = engine.analyze_observable_determinism()

        observable_rules = frozenset(
            name
            for name in partition
            if engine.definitions.observable(name)
        )
        return PartitionResult(
            fingerprint=fingerprint,
            rules=partition,
            termination=termination,
            confluence=confluence,
            observable=observable,
            observable_rules=observable_rules,
        )
