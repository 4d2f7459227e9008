"""Termination analysis — Section 5, Theorem 5.1.

The *triggering graph* ``TG_R`` has the rules as nodes and an edge
``ri → rj`` iff ``rj ∈ Triggers(ri)``. Theorem 5.1: if ``TG_R`` is
acyclic, rule processing is guaranteed to terminate.

When cycles exist the analyzer reports the strong components and every
elementary cycle inside them, so the user can inspect each cycle and —
per the interactive process the paper describes — *certify* that some
rule on it guarantees progress (its condition eventually becomes false,
or its action eventually has no effect). A certified rule is treated as
breaking every cycle through it.

As an automatic assist (the paper's first special case), the analyzer
detects *delete-only* rules on a cycle: a rule whose action only deletes
from tables that no rule on the same strong component inserts into —
such a rule's action eventually has no effect, so cycles through it
terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.derived import DerivedDefinitions
from repro.errors import AnalysisError
from repro.lang import ast


class TriggeringGraph:
    """``TG_R``: nodes are rule names; edges follow ``Triggers``."""

    def __init__(self, definitions: DerivedDefinitions) -> None:
        self.definitions = definitions
        self.nodes: tuple[str, ...] = definitions.rule_names
        self.successors: dict[str, frozenset[str]] = {
            name: definitions.triggers(name) for name in self.nodes
        }

    @classmethod
    def from_successors(
        cls,
        nodes,
        successors: dict[str, frozenset[str]],
        definitions: DerivedDefinitions | None = None,
    ) -> "TriggeringGraph":
        """Build a graph over an explicit edge relation (reduced or
        refined graphs reuse the SCC/cycle machinery this way)."""
        graph = cls.__new__(cls)
        graph.definitions = definitions
        graph.nodes = tuple(nodes)
        graph.successors = {
            node: frozenset(successors.get(node, frozenset()))
            for node in graph.nodes
        }
        return graph

    def restricted_to(self, members: frozenset[str]) -> "TriggeringGraph":
        """The induced subgraph on *members*."""
        return TriggeringGraph.from_successors(
            tuple(node for node in self.nodes if node in members),
            {
                node: self.successors[node] & members
                for node in self.nodes
                if node in members
            },
            self.definitions,
        )

    def edges(self) -> list[tuple[str, str]]:
        return [
            (source, target)
            for source in self.nodes
            for target in sorted(self.successors[source])
        ]

    # ------------------------------------------------------------------

    def strong_components(self) -> list[frozenset[str]]:
        """Tarjan's SCCs, in reverse topological order."""
        index_counter = 0
        indices: dict[str, int] = {}
        lowlinks: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[frozenset[str]] = []

        # Iterative Tarjan to survive deep graphs.
        for root in self.nodes:
            if root in indices:
                continue
            work: list[tuple[str, iter]] = [(root, iter(sorted(self.successors[root])))]
            indices[root] = lowlinks[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successor_iter = work[-1]
                advanced = False
                for successor in successor_iter:
                    if successor not in indices:
                        indices[successor] = lowlinks[successor] = index_counter
                        index_counter += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(sorted(self.successors[successor])))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlinks[node] = min(
                            lowlinks[node], indices[successor]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == indices[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(frozenset(component))
        return components

    def cyclic_components(self) -> list[frozenset[str]]:
        """Strong components containing a cycle (size > 1, or a self-loop)."""
        return [
            component
            for component in self.strong_components()
            if len(component) > 1
            or next(iter(component)) in self.successors[next(iter(component))]
        ]

    def elementary_cycles(self, limit: int = 1_000) -> list[tuple[str, ...]]:
        """Elementary cycles (Johnson-style bounded enumeration).

        Each cycle is reported once, starting from its lexicographically
        least node. Enumeration stops at *limit* cycles.
        """
        cycles: list[tuple[str, ...]] = []
        nodes_sorted = sorted(self.nodes)

        for start in nodes_sorted:
            if len(cycles) >= limit:
                break
            # DFS allowing only nodes >= start, so each cycle is found
            # exactly once (rooted at its least node). Explicit stack of
            # (node, successor iterator) frames: generated rule graphs
            # reach thousands of nodes, past the recursion limit.
            path = [start]
            on_path = {start}
            work = [(start, iter(sorted(self.successors[start])))]
            while work and len(cycles) < limit:
                node, successor_iter = work[-1]
                advanced = False
                for successor in successor_iter:
                    if successor == start:
                        cycles.append(tuple(path))
                        if len(cycles) >= limit:
                            break
                    elif successor > start and successor not in on_path:
                        path.append(successor)
                        on_path.add(successor)
                        work.append(
                            (successor, iter(sorted(self.successors[successor])))
                        )
                        advanced = True
                        break
                if not advanced:
                    work.pop()
                    on_path.discard(node)
                    path.pop()
        return cycles


@dataclass
class TerminationAnalysis:
    """The outcome of termination analysis (Theorem 5.1 + certifications)."""

    #: True iff termination is guaranteed.
    guaranteed: bool
    #: cyclic strong components of the triggering graph (before certification)
    cyclic_components: list[frozenset[str]]
    #: cyclic strong components remaining after certified rules are removed
    uncertified_components: list[frozenset[str]]
    #: rules the user certified as progress-guaranteeing
    certified_rules: frozenset[str]
    #: per cyclic component, rules the delete-only heuristic would certify
    auto_certifiable: dict[frozenset[str], frozenset[str]] = field(
        default_factory=dict
    )
    graph: TriggeringGraph | None = None

    @property
    def may_not_terminate(self) -> bool:
        return not self.guaranteed

    def responsible_rules(self) -> frozenset[str]:
        """The rules involved in unresolved cycles (what the analyzer
        'isolates' for the user)."""
        rules: set[str] = set()
        for component in self.uncertified_components:
            rules |= component
        return frozenset(rules)

    def describe(self) -> str:
        if self.guaranteed:
            if self.cyclic_components:
                return (
                    "termination guaranteed (all "
                    f"{len(self.cyclic_components)} triggering cycles "
                    "certified)"
                )
            return "termination guaranteed (triggering graph is acyclic)"
        components = "; ".join(
            "{" + ", ".join(sorted(component)) + "}"
            for component in self.uncertified_components
        )
        return f"may not terminate: cyclic rule groups {components}"


class TerminationAnalyzer:
    """Builds ``TG_R`` and applies Theorem 5.1 with user certifications."""

    def __init__(self, definitions: DerivedDefinitions) -> None:
        self.definitions = definitions
        self.graph = TriggeringGraph(definitions)
        self._certified_rules: set[str] = set()

    # ------------------------------------------------------------------
    # Certification (the interactive loop of Section 5)
    # ------------------------------------------------------------------

    def certify_rule(self, rule: str) -> None:
        """Certify that repeated consideration of cycles through *rule*
        makes its condition eventually false or its action ineffective."""
        rule = rule.lower()
        if rule not in self.graph.successors:
            raise AnalysisError(f"unknown rule {rule!r}")
        self._certified_rules.add(rule)

    def revoke_rule_certification(self, rule: str) -> bool:
        rule = rule.lower()
        if rule in self._certified_rules:
            self._certified_rules.discard(rule)
            return True
        return False

    @property
    def certified_rules(self) -> frozenset[str]:
        return frozenset(self._certified_rules)

    # ------------------------------------------------------------------

    def auto_certifiable_rules(
        self, component: frozenset[str]
    ) -> frozenset[str]:
        """Delete-only heuristic (paper's first special case).

        A rule qualifies when its action performs only deletions, and no
        rule in the same strong component inserts into any table it
        deletes from: repetition must eventually find those tables empty.
        """
        qualifying: set[str] = set()
        inserted_tables = {
            event.table
            for member in component
            for event in self.definitions.performs(member)
            if event.kind == "I"
        }
        for member in component:
            performs = self.definitions.performs(member)
            if not performs:
                continue
            if any(event.kind != "D" for event in performs):
                continue
            deleted_tables = {event.table for event in performs}
            if deleted_tables & inserted_tables:
                continue
            qualifying.add(member)
        return frozenset(qualifying)

    def auto_certifiable_monotonic_rules(
        self, component: frozenset[str]
    ) -> frozenset[str]:
        """Monotonic-update heuristic (paper's second special case).

        A rule qualifies when every action is an UPDATE whose
        assignments all drift a column monotonically by a positive
        literal (``c = c ± k``) *toward a literal bound enforced by the
        same statement's WHERE clause* (``c < N`` for ``+k``, ``c > N``
        for ``-k``), and no other rule in the strong component writes
        any of those columns or inserts into those tables. Each
        consideration then strictly shrinks the set's distance to the
        bound, so the rule's action eventually has no effect.
        """
        qualifying: set[str] = set()
        for member in component:
            rule = self.definitions.ruleset.rule(member)
            drifts = _monotonic_drifts(rule)
            if drifts is None:
                continue
            if _component_interferes(self.definitions, component, member, drifts):
                continue
            qualifying.add(member)
        return frozenset(qualifying)

    # ------------------------------------------------------------------

    def analyze(self) -> TerminationAnalysis:
        """Theorem 5.1 plus certification: termination is guaranteed iff
        every cyclic strong component contains a certified rule whose
        removal breaks all of its cycles."""
        cyclic = self.graph.cyclic_components()
        uncertified = self._components_after_certification()
        auto = {
            component: (
                self.auto_certifiable_rules(component)
                | self.auto_certifiable_monotonic_rules(component)
            )
            for component in cyclic
        }
        return TerminationAnalysis(
            guaranteed=not uncertified,
            cyclic_components=cyclic,
            uncertified_components=uncertified,
            certified_rules=self.certified_rules,
            auto_certifiable=auto,
            graph=self.graph,
        )

    def apply_auto_certifications(self) -> frozenset[str]:
        """Certify every rule the heuristics can justify; returns them."""
        certified: set[str] = set()
        for component in self.graph.cyclic_components():
            for rule in self.auto_certifiable_rules(component):
                certified.add(rule)
            for rule in self.auto_certifiable_monotonic_rules(component):
                certified.add(rule)
        for rule in certified:
            self.certify_rule(rule)
        return frozenset(certified)

    def _components_after_certification(self) -> list[frozenset[str]]:
        """Cyclic components of ``TG_R`` minus certified rules.

        Removing a certified rule removes the node entirely: any cycle
        through it is broken because the rule stops propagating once its
        condition goes false or its action stops having effect.
        """
        if not self._certified_rules:
            return self.graph.cyclic_components()
        keep = [
            node
            for node in self.graph.nodes
            if node not in self._certified_rules
        ]
        reduced_successors = {
            node: frozenset(
                successor
                for successor in self.graph.successors[node]
                if successor not in self._certified_rules
            )
            for node in keep
        }
        reduced = TriggeringGraph.__new__(TriggeringGraph)
        reduced.definitions = self.definitions
        reduced.nodes = tuple(keep)
        reduced.successors = reduced_successors
        return reduced.cyclic_components()


# ----------------------------------------------------------------------
# Monotonic-update pattern matching (syntactic; deliberately narrow)
# ----------------------------------------------------------------------


def _drift_of_assignment(
    table: str, assignment: ast.Assignment
) -> tuple[str, str, int] | None:
    """Match ``c = c + k`` / ``c = c - k`` with literal positive k.

    Returns ``(table, column, signed_step)`` or None.
    """
    value = assignment.value
    if not isinstance(value, ast.BinaryOp) or value.op not in ("+", "-"):
        return None
    column = assignment.column.lower()

    def is_self_ref(expr) -> bool:
        return (
            isinstance(expr, ast.ColumnRef)
            and expr.column.lower() == column
            and (expr.table is None or expr.table.lower() == table)
        )

    if value.op == "+":
        if is_self_ref(value.left):
            step = ast.literal_value(value.right)
        elif is_self_ref(value.right):
            step = ast.literal_value(value.left)
        else:
            return None
        if type(step) is not int or step == 0:
            return None
        return (table, column, step)

    # value.op == "-": only c - k is monotone (k - c is not a drift).
    if not is_self_ref(value.left):
        return None
    step = ast.literal_value(value.right)
    if type(step) is not int or step <= 0:
        return None
    return (table, column, -step)


def _bounds_column(
    where, table: str, column: str, direction: int
) -> bool:
    """True when a WHERE conjunct bounds *column* against the drift:
    ``c < N`` / ``c <= N`` for upward drift, ``c > N`` / ``c >= N`` for
    downward (literal N; reversed operand order handled)."""
    if where is None:
        return False
    upward = direction > 0
    wanted_ops = ("<", "<=") if upward else (">", ">=")
    flipped_ops = (">", ">=") if upward else ("<", "<=")

    def is_column(expr) -> bool:
        return (
            isinstance(expr, ast.ColumnRef)
            and expr.column.lower() == column
            and (expr.table is None or expr.table.lower() == table)
        )

    for conjunct in ast.conjuncts(where):
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        if conjunct.op in wanted_ops and is_column(conjunct.left) and (
            type(ast.literal_value(conjunct.right)) is int
        ):
            return True
        if conjunct.op in flipped_ops and is_column(conjunct.right) and (
            type(ast.literal_value(conjunct.left)) is int
        ):
            return True
    return False


def _monotonic_drifts(rule) -> list[tuple[str, str, int]] | None:
    """All of *rule*'s actions as bounded monotonic drifts, or None.

    Every action must be an UPDATE whose assignments each drift a column
    monotonically and whose WHERE bounds that column against the drift.
    """
    drifts: list[tuple[str, str, int]] = []
    for action in rule.actions:
        if not isinstance(action, ast.Update):
            return None
        table = action.table.lower()
        for assignment in action.assignments:
            drift = _drift_of_assignment(table, assignment)
            if drift is None:
                return None
            if not _bounds_column(action.where, table, drift[1], drift[2]):
                return None
            drifts.append(drift)
    return drifts or None


# ----------------------------------------------------------------------
# Layered termination report (chase-grade analysis, Section 5 extended)
# ----------------------------------------------------------------------

#: Ordered analysis modes: each subsumes the previous one.
TERMINATION_MODES = ("tg", "stratified", "critical")

VERDICT_AUTO = "auto-certified"
VERDICT_USER = "user-certified"
VERDICT_WITNESS = "witness-nonterminating"
VERDICT_UNKNOWN = "unknown"

#: Analyzer labels for auto-certified verdicts, weakest first.
ANALYZER_DELETE_ONLY = "delete-only"
ANALYZER_MONOTONIC = "monotonic"
ANALYZER_STRATIFIED = "stratified"
ANALYZER_CRITICAL = "critical-instance"


@dataclass(frozen=True)
class ComponentVerdict:
    """Per-cycle verdict of the layered termination analysis.

    ``verdict`` is one of ``auto-certified``, ``user-certified``,
    ``witness-nonterminating`` or ``unknown``; for auto-certified
    components ``analyzer`` names the weakest layer that discharged the
    cycle (``delete-only | monotonic | stratified | critical-instance``).
    """

    component: tuple[str, ...]
    verdict: str
    analyzer: str | None = None
    certified_rules: tuple[str, ...] = ()
    stratum: int | None = None
    detail: str = ""
    witness: object | None = None

    @property
    def discharged(self) -> bool:
        return self.verdict in (VERDICT_AUTO, VERDICT_USER)

    def label(self) -> str:
        if self.verdict == VERDICT_AUTO and self.analyzer:
            return f"{VERDICT_AUTO}({self.analyzer})"
        return self.verdict

    def to_dict(self) -> dict:
        payload = {
            "component": list(self.component),
            "verdict": self.verdict,
            "analyzer": self.analyzer,
            "certified_rules": list(self.certified_rules),
            "stratum": self.stratum,
            "detail": self.detail,
        }
        if self.witness is not None:
            payload["witness"] = self.witness.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ComponentVerdict":
        witness = None
        if payload.get("witness") is not None:
            from repro.analysis.critical import Witness

            witness = Witness.from_dict(payload["witness"])
        return cls(
            component=tuple(payload["component"]),
            verdict=payload["verdict"],
            analyzer=payload.get("analyzer"),
            certified_rules=tuple(payload.get("certified_rules", ())),
            stratum=payload.get("stratum"),
            detail=payload.get("detail", ""),
            witness=witness,
        )


@dataclass
class TerminationReport:
    """Outcome of the layered (stratified / critical-instance) analysis.

    One :class:`ComponentVerdict` per cyclic strong component of the
    *base* triggering graph; ``strata`` maps each rule to its stratum in
    the refined-graph condensation (empty in plain ``tg`` mode).
    """

    mode: str
    verdicts: list[ComponentVerdict]
    strata: dict[str, int] = field(default_factory=dict)
    pruned_edges: list[tuple[str, str, str]] = field(default_factory=list)
    base: TerminationAnalysis | None = None

    @property
    def terminates(self) -> bool:
        return all(verdict.discharged for verdict in self.verdicts)

    @property
    def has_witness(self) -> bool:
        return any(v.verdict == VERDICT_WITNESS for v in self.verdicts)

    def witnesses(self) -> list:
        return [
            verdict.witness
            for verdict in self.verdicts
            if verdict.witness is not None
        ]

    def verdict_for(self, rule: str) -> ComponentVerdict | None:
        rule = rule.lower()
        for verdict in self.verdicts:
            if rule in verdict.component:
                return verdict
        return None

    def describe(self) -> str:
        if not self.verdicts:
            return (
                f"termination guaranteed [{self.mode}] "
                "(triggering graph is acyclic)"
            )
        if self.terminates:
            return (
                f"termination guaranteed [{self.mode}] ("
                + "; ".join(
                    "{" + ", ".join(v.component) + "}: " + v.label()
                    for v in self.verdicts
                )
                + ")"
            )
        bad = "; ".join(
            "{" + ", ".join(v.component) + "}: " + v.label()
            for v in self.verdicts
            if not v.discharged
        )
        prefix = (
            "non-terminating"
            if self.has_witness
            else "may not terminate"
        )
        return f"{prefix} [{self.mode}]: {bad}"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "terminates": self.terminates,
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
            "strata": dict(sorted(self.strata.items())),
            "pruned_edges": [list(edge) for edge in self.pruned_edges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TerminationReport":
        return cls(
            mode=payload["mode"],
            verdicts=[
                ComponentVerdict.from_dict(entry)
                for entry in payload.get("verdicts", ())
            ],
            strata={
                rule: int(stratum)
                for rule, stratum in payload.get("strata", {}).items()
            },
            pruned_edges=[
                (edge[0], edge[1], edge[2])
                for edge in payload.get("pruned_edges", ())
            ],
        )


def _component_stratum(
    component: frozenset[str], strata: dict[str, int]
) -> int | None:
    values = [strata[rule] for rule in component if rule in strata]
    return min(values) if values else None


def build_termination_report(
    ruleset,
    *,
    mode: str = "stratified",
    certified: tuple[str, ...] = (),
    definitions: DerivedDefinitions | None = None,
    find_witnesses: bool = True,
    rules_source: str | None = None,
    witness_max_states: int = 400,
    witness_max_steps: int = 300,
) -> TerminationReport:
    """Run the layered termination analysis at the requested *mode*.

    ``tg`` reproduces Theorem 5.1 plus the per-rule heuristics;
    ``stratified`` adds refined-graph pruning and the combined
    non-increasing fixpoint; ``critical`` additionally runs the
    critical-instance saturation and, for still-undischarged cycles,
    searches for a concrete non-termination witness. Layers are tried
    weakest-first, so each verdict names the cheapest analyzer that
    discharges its cycle and the mode hierarchy is monotone.
    """
    if mode not in TERMINATION_MODES:
        raise AnalysisError(f"unknown termination mode {mode!r}")
    if definitions is None:
        definitions = DerivedDefinitions(ruleset)
    analyzer = TerminationAnalyzer(definitions)
    for rule in certified:
        analyzer.certify_rule(rule)
    base = analyzer.analyze()

    stratification = None
    critical = None
    strata: dict[str, int] = {}
    pruned: list[tuple[str, str, str]] = []
    if mode in ("stratified", "critical"):
        from repro.analysis.stratification import StratificationAnalyzer

        stratification = StratificationAnalyzer(definitions).analyze()
        strata = dict(stratification.strata)
        pruned = [
            (edge.source, edge.target, edge.reason)
            for edge in stratification.pruned_edges
        ]
    if mode == "critical":
        from repro.analysis.critical import CriticalInstanceAnalyzer

        critical = CriticalInstanceAnalyzer(ruleset, definitions).analyze()

    reduced_cyclic = base.uncertified_components
    verdicts: list[ComponentVerdict] = []
    for component in sorted(base.cyclic_components, key=sorted):
        members = tuple(sorted(component))
        stratum = _component_stratum(component, strata)

        # Layer 0: user certification (removal of certified rules broke
        # every cycle of this component).
        if analyzer.certified_rules and not any(
            reduced <= component for reduced in reduced_cyclic
        ):
            verdicts.append(
                ComponentVerdict(
                    members,
                    VERDICT_USER,
                    certified_rules=tuple(
                        sorted(component & analyzer.certified_rules)
                    ),
                    stratum=stratum,
                    detail="user-certified rules break every cycle",
                )
            )
            continue

        # Layer 1: the paper's per-rule heuristics on the original graph.
        simple = None
        for label, rules in (
            (ANALYZER_DELETE_ONLY, analyzer.auto_certifiable_rules(component)),
            (
                ANALYZER_MONOTONIC,
                analyzer.auto_certifiable_monotonic_rules(component),
            ),
        ):
            if not rules:
                continue
            remaining = analyzer.graph.restricted_to(component - rules)
            if not remaining.cyclic_components():
                simple = (label, rules)
                break
        if simple is not None:
            label, rules = simple
            verdicts.append(
                ComponentVerdict(
                    members,
                    VERDICT_AUTO,
                    analyzer=label,
                    certified_rules=tuple(sorted(rules)),
                    stratum=stratum,
                    detail=f"{label} rules break every cycle",
                )
            )
            continue

        # Layer 2: refined graph + combined non-increasing fixpoint.
        if stratification is not None:
            discharged = stratification.certify_component(component, analyzer)
            if discharged is not None:
                verdicts.append(
                    ComponentVerdict(
                        members,
                        VERDICT_AUTO,
                        analyzer=ANALYZER_STRATIFIED,
                        certified_rules=tuple(sorted(discharged.rules)),
                        stratum=stratum,
                        detail=discharged.detail,
                    )
                )
                continue

        # Layer 3: critical-instance tail saturation.
        if critical is not None:
            discharged = critical.certify_component(
                component, stratification, analyzer
            )
            if discharged is not None:
                verdicts.append(
                    ComponentVerdict(
                        members,
                        VERDICT_AUTO,
                        analyzer=ANALYZER_CRITICAL,
                        certified_rules=tuple(sorted(discharged.rules)),
                        stratum=stratum,
                        detail=discharged.detail,
                    )
                )
                continue

        # Layer 4: look for a concrete non-termination witness.
        if mode == "critical" and find_witnesses:
            from repro.analysis.critical import find_witness

            witness = find_witness(
                ruleset,
                component,
                rules_source=rules_source,
                max_states=witness_max_states,
                max_steps=witness_max_steps,
            )
            if witness is not None:
                verdicts.append(
                    ComponentVerdict(
                        members,
                        VERDICT_WITNESS,
                        stratum=stratum,
                        detail=witness.detail,
                        witness=witness,
                    )
                )
                continue

        verdicts.append(
            ComponentVerdict(
                members,
                VERDICT_UNKNOWN,
                stratum=stratum,
                detail="no analyzer in this mode discharges the cycle",
            )
        )

    return TerminationReport(
        mode=mode,
        verdicts=verdicts,
        strata=strata,
        pruned_edges=pruned,
        base=base,
    )


def _component_interferes(
    definitions: DerivedDefinitions,
    component: frozenset[str],
    member: str,
    drifts: list[tuple[str, str, int]],
) -> bool:
    """True when another rule in the component writes a drifted column
    or inserts into a drifted table (which could undo the progress)."""
    drifted_columns = {(table, column) for table, column, __ in drifts}
    drifted_tables = {table for table, __, __ in drifts}
    for other in component:
        if other == member:
            continue
        for event in definitions.performs(other):
            if event.kind == "I" and event.table in drifted_tables:
                return True
            if event.kind == "U" and (event.table, event.column) in (
                drifted_columns
            ):
                return True
    return False
