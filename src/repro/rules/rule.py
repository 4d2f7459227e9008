"""The Rule object: a validated, schema-bound rule definition.

A :class:`Rule` wraps a parsed :class:`~repro.lang.ast.RuleDefinition`
and binds it to a :class:`~repro.schema.catalog.Schema`, validating that

* the rule's table and every referenced table/column exist;
* transition tables are only used when the corresponding triggering
  operation is declared (Section 2: "A rule may refer only to transition
  tables corresponding to its triggering operations");
* ``updated(...)`` column lists name real columns of the rule's table.

The triggered-by event set (``Triggered-By`` of Section 3) is computed
here because it is purely syntactic; the other derived definitions
(``Performs``, ``Reads``, ...) live in :mod:`repro.analysis.derived`.
"""

from __future__ import annotations

from repro.errors import RuleError
from repro.lang import ast
from repro.lang.parser import parse_rule
from repro.lang.pretty import format_rule
from repro.rules.events import TriggerEvent
from repro.schema.catalog import Schema


class Rule:
    """A schema-validated production rule."""

    def __init__(self, definition: ast.RuleDefinition, schema: Schema) -> None:
        self.definition = definition
        self.schema = schema
        self.name = definition.name.lower()
        self.table = definition.table.lower()
        self._validate()
        self.triggered_by = self._compute_triggered_by()
        #: ``triggered_by`` as the processor's triggering check reads
        #: it: does an insert, does a delete, and the update of which
        #: column positions of the rule's table trigger the rule
        columns = schema.table(self.table).column_names
        self.triggered_by_insert = (
            TriggerEvent.insert(self.table) in self.triggered_by
        )
        self.triggered_by_delete = (
            TriggerEvent.delete(self.table) in self.triggered_by
        )
        self.triggered_by_positions = tuple(
            index
            for index, column in enumerate(columns)
            if TriggerEvent.update(self.table, column) in self.triggered_by
        )

    @classmethod
    def parse(cls, source: str, schema: Schema) -> "Rule":
        """Parse *source* as a ``create rule`` statement and bind it."""
        return cls(parse_rule(source), schema)

    # ------------------------------------------------------------------
    # Derived syntactic properties
    # ------------------------------------------------------------------

    @property
    def condition(self) -> ast.Expression | None:
        return self.definition.condition

    @property
    def actions(self) -> tuple[ast.Statement, ...]:
        return self.definition.actions

    @property
    def precedes(self) -> tuple[str, ...]:
        return tuple(name.lower() for name in self.definition.precedes)

    @property
    def follows(self) -> tuple[str, ...]:
        return tuple(name.lower() for name in self.definition.follows)

    @property
    def is_observable(self) -> bool:
        """Starburst: a rule's action may be observable iff it includes a
        select or rollback statement (Section 3, ``Observable``)."""
        return any(
            isinstance(action, (ast.Select, ast.Rollback))
            for action in self.actions
        )

    def _compute_triggered_by(self) -> frozenset[TriggerEvent]:
        """``Triggered-By(r)`` — the operations in ``O`` that trigger r."""
        events: set[TriggerEvent] = set()
        table_def = self.schema.table(self.table)
        for spec in self.definition.triggers:
            if spec.kind is ast.TriggerKind.INSERTED:
                events.add(TriggerEvent.insert(self.table))
            elif spec.kind is ast.TriggerKind.DELETED:
                events.add(TriggerEvent.delete(self.table))
            else:
                columns = spec.columns or table_def.column_names
                for column in columns:
                    events.add(TriggerEvent.update(self.table, column))
        return frozenset(events)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        if not self.schema.has_table(self.table):
            raise RuleError(
                f"rule {self.name!r} is on unknown table {self.table!r}"
            )
        table_def = self.schema.table(self.table)
        for spec in self.definition.triggers:
            for column in spec.columns:
                if not table_def.has_column(column):
                    raise RuleError(
                        f"rule {self.name!r}: updated({column}) names no "
                        f"column of table {self.table!r}"
                    )

        allowed_transition_tables = self._allowed_transition_tables()
        for select in self._all_selects():
            self._validate_tables(select.tables, allowed_transition_tables)
        for action in self.actions:
            self._validate_action_target(action)

    def _allowed_transition_tables(self) -> frozenset[str]:
        allowed: set[str] = set()
        for spec in self.definition.triggers:
            if spec.kind is ast.TriggerKind.INSERTED:
                allowed.add("inserted")
            elif spec.kind is ast.TriggerKind.DELETED:
                allowed.add("deleted")
            else:
                allowed.add("new_updated")
                allowed.add("old_updated")
        return frozenset(allowed)

    def _all_selects(self):
        if self.condition is not None:
            yield from ast.subqueries_of(self.condition)
        for action in self.actions:
            yield from ast.selects_of_statement(action)

    def _validate_tables(
        self,
        tables: tuple[ast.TableRef, ...],
        allowed_transition_tables: frozenset[str],
    ) -> None:
        for ref in tables:
            name = ref.name.lower()
            if name in ast.TRANSITION_TABLE_NAMES:
                if name not in allowed_transition_tables:
                    raise RuleError(
                        f"rule {self.name!r} references transition table "
                        f"{name!r} but is not triggered by the "
                        "corresponding operation"
                    )
            elif not self.schema.has_table(name):
                raise RuleError(
                    f"rule {self.name!r} references unknown table {name!r}"
                )

    def _validate_action_target(self, action: ast.Statement) -> None:
        if isinstance(action, ast.Insert):
            target = action.table
        elif isinstance(action, ast.Delete):
            target = action.table
        elif isinstance(action, ast.Update):
            target = action.table
        elif isinstance(action, (ast.Select, ast.Rollback)):
            return
        else:
            raise RuleError(
                f"rule {self.name!r} has an unsupported action type "
                f"{type(action).__name__}"
            )
        if target.lower() in ast.TRANSITION_TABLE_NAMES:
            raise RuleError(
                f"rule {self.name!r} cannot modify transition table "
                f"{target!r}"
            )
        if not self.schema.has_table(target):
            raise RuleError(
                f"rule {self.name!r} modifies unknown table {target!r}"
            )
        if isinstance(action, ast.Update):
            table_def = self.schema.table(action.table)
            for assignment in action.assignments:
                if not table_def.has_column(assignment.column):
                    raise RuleError(
                        f"rule {self.name!r} updates unknown column "
                        f"{action.table}.{assignment.column}"
                    )

    # ------------------------------------------------------------------

    def source(self) -> str:
        """The rule rendered back to rule-language source."""
        return format_rule(self.definition)

    def __repr__(self) -> str:
        return f"Rule({self.name} on {self.table})"

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.name == other.name and self.definition == other.definition
