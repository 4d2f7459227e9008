"""The rule set ``R`` with its priority relation ``P`` (Section 3).

A :class:`RuleSet` is the unit all analyses operate on: an ordered
collection of named :class:`~repro.rules.rule.Rule` objects over one
schema, together with the transitive priority relation induced by their
``precedes``/``follows`` clauses (plus any orderings added later through
the interactive analyzer).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from repro.errors import RuleError
from repro.lang.parser import parse_rules
from repro.rules.priorities import PriorityRelation
from repro.rules.rule import Rule
from repro.schema.catalog import Schema


class RuleSet:
    """An immutable-ish collection of rules; priorities may be extended."""

    def __init__(self, schema: Schema, rules: Iterable[Rule] = ()) -> None:
        self.schema = schema
        self._rules: dict[str, Rule] = {}
        self._deactivated: set[str] = set()
        for rule in rules:
            self._add(rule)
        self.priorities = self._build_priorities()

    @classmethod
    def parse(cls, source: str, schema: Schema) -> "RuleSet":
        """Parse a sequence of ``create rule`` statements into a rule set."""
        definitions = parse_rules(source)
        return cls(schema, [Rule(defn, schema) for defn in definitions])

    def _add(self, rule: Rule) -> None:
        if rule.schema is not self.schema:
            raise RuleError(
                f"rule {rule.name!r} is bound to a different schema"
            )
        if rule.name in self._rules:
            raise RuleError(f"duplicate rule name {rule.name!r}")
        self._rules[rule.name] = rule

    def _build_priorities(self) -> PriorityRelation:
        relation = PriorityRelation(list(self._rules))
        for rule in self._rules.values():
            for lower in rule.precedes:
                if lower not in self._rules:
                    raise RuleError(
                        f"rule {rule.name!r} precedes unknown rule {lower!r}"
                    )
                relation.add_ordering(rule.name, lower)
            for higher in rule.follows:
                if higher not in self._rules:
                    raise RuleError(
                        f"rule {rule.name!r} follows unknown rule {higher!r}"
                    )
                relation.add_ordering(higher, rule.name)
        return relation

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def rule(self, name: str) -> Rule:
        try:
            return self._rules[name.lower()]
        except KeyError:
            raise RuleError(f"unknown rule {name!r}") from None

    def has_rule(self, name: str) -> bool:
        return name.lower() in self._rules

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, name: str) -> bool:
        return self.has_rule(name)

    # ------------------------------------------------------------------
    # Priority editing (the Section 6.4 interactive loop)
    # ------------------------------------------------------------------

    def add_priority(self, higher: str, lower: str) -> None:
        """Add ``higher > lower`` (as if editing a precedes clause)."""
        self.rule(higher)
        self.rule(lower)
        self.priorities.add_ordering(higher, lower)

    def remove_priority(self, higher: str, lower: str) -> bool:
        return self.priorities.remove_ordering(higher, lower)

    # ------------------------------------------------------------------
    # Activation (Starburst's deactivate/activate commands)
    # ------------------------------------------------------------------

    def deactivate(self, name: str) -> None:
        """Deactivate a rule: it stops being triggered until reactivated."""
        self.rule(name)
        self._deactivated.add(name.lower())

    def activate(self, name: str) -> None:
        self.rule(name)
        self._deactivated.discard(name.lower())

    def is_active(self, name: str) -> bool:
        self.rule(name)
        return name.lower() not in self._deactivated

    @property
    def active_names(self) -> tuple[str, ...]:
        return tuple(
            name for name in self._rules if name not in self._deactivated
        )

    def active_subset(self) -> "RuleSet":
        """The active rules as a stand-alone rule set (for analysis)."""
        return self.subset(self.active_names)

    # ------------------------------------------------------------------
    # Choose (Section 3)
    # ------------------------------------------------------------------

    def choose(self, triggered: Iterable[str]) -> tuple[str, ...]:
        """``Choose(R')``: the triggered rules eligible for consideration.

        A triggered rule is eligible iff no *other triggered* rule has
        precedence over it: ``{r ∈ R' : above(r) ∩ R' = ∅}``, one set
        test per triggered rule against the inverse closure of ``P``
        (``P`` is strict, so ``above(r)`` never holds ``r``). Result is
        in rule-definition order.
        """
        triggered_set = {name.lower() for name in triggered}
        for name in triggered_set - self._rules.keys():
            self.rule(name)  # raises: unknown rule
        above = self.priorities.above
        return tuple(
            name
            for name in self._rules
            if name in triggered_set and above[name].isdisjoint(triggered_set)
        )

    @cached_property
    def rules_by_table(self) -> dict[str, tuple[Rule, ...]]:
        """Each table some rule is defined on, mapped to those rules in
        definition order (the rules a write to the table can trigger)."""
        index: dict[str, list[Rule]] = {}
        for rule in self._rules.values():
            index.setdefault(rule.table, []).append(rule)
        return {table: tuple(rules) for table, rules in index.items()}

    # ------------------------------------------------------------------

    def subset(self, names: Iterable[str]) -> "RuleSet":
        """A new RuleSet over the same schema containing only *names*.

        Priorities among the retained rules are preserved (including
        those added interactively).
        """
        keep = {name.lower() for name in names}
        for name in keep:
            self.rule(name)
        subset = RuleSet.__new__(RuleSet)
        subset.schema = self.schema
        subset._rules = {
            name: rule for name, rule in self._rules.items() if name in keep
        }
        subset._deactivated = set()
        relation = PriorityRelation(list(subset._rules))
        for higher, lower in sorted(self.priorities.pairs()):
            if higher in keep and lower in keep:
                relation.add_ordering(higher, lower)
        subset.priorities = relation
        return subset

    def source(self) -> str:
        """All rules rendered back to rule-language source."""
        return "\n\n".join(rule.source() for rule in self)

    def __repr__(self) -> str:
        return f"RuleSet({', '.join(self._rules)})"
