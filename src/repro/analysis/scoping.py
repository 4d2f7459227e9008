"""How a rule's column references resolve: one scoped walk per rule.

Section 3's ``Reads(r)`` charges the columns a rule's condition and
action reference, a transition-table reference charging the rule's own
table ("for every (trans).c referenced ... t.c is in Reads(r) for r's
triggering table t"). The Section 6.1 refinement (``ColumnReads`` and
``RowReadTables`` in :mod:`repro.analysis.dataflow`) is sound only if
it resolves every reference exactly as ``Reads`` does, and lint's
RPL006/RPL008 report what that resolution drops or widens. So the
scoping rules are decided here, once:

* each SELECT opens a level that binds its FROM names (table or alias);
  UPDATE and DELETE bind their target under its alias and its own name;
* a transition table (``inserted``, ``deleted``, ``new_updated``,
  ``old_updated``) resolves to the rule's own table;
* a qualifier resolves at the innermost level binding it, and an
  unbound qualifier is taken as a base table name;
* an unqualified column resolves to every table bound at the innermost
  level that has such a column.

:func:`resolve_references` walks the condition and actions once and
records the outcome as facts — a :class:`SelectFacts` per SELECT and a
:class:`ColumnFacts` per column reference. ``Reads``, ``ColumnReads``,
``RowReadTables``, RPL006/RPL008 and the server's MVCC read footprint
are folds over those facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import ast
from repro.rules.rule import Rule
from repro.schema.catalog import Schema


@dataclass(frozen=True)
class SelectFacts:
    """One SELECT of a rule, nested ones included."""

    #: FROM tables in order, transition tables resolved to the rule's
    #: own table
    from_tables: tuple[str, ...]
    #: ``select *``
    star: bool
    #: whether its output values can affect the rule: False under
    #: ``exists``, where only the existence of a row matters, and for
    #: every select nested in the output of such a select
    value_read: bool
    #: whether ``count(*)`` is among its own expressions (those of
    #: nested selects not included)
    counts_rows: bool


@dataclass(frozen=True)
class ColumnFacts:
    """One column reference of a rule and how it resolves."""

    ref: ast.ColumnRef
    #: the column, lower-cased
    column: str
    #: a qualified reference's one table, known to the schema or not; an
    #: unqualified reference's tables at the innermost level that has
    #: the column (none when no level has it)
    tables: tuple[str, ...]
    #: whether it names a column the schema has: False for a qualifier
    #: naming an unknown table or a table without the column, and for an
    #: unqualified column no table in scope has
    known: bool
    #: the selects enclosing it, innermost first (indices into
    #: :attr:`References.selects`)
    selects: tuple[int, ...]
    #: whether its value can affect the rule (False inside the output
    #: of a select only whose existence matters)
    value_read: bool


@dataclass(frozen=True)
class References:
    """Every SELECT and column reference of one rule, resolved."""

    schema: Schema
    selects: tuple[SelectFacts, ...]
    columns: tuple[ColumnFacts, ...]

    def table_columns(self, table: str) -> tuple[str, ...]:
        """Every column of *table*; none for a name the schema lacks."""
        if not self.schema.has_table(table):
            return ()
        return self.schema.table(table).column_names


def resolve_references(rule: Rule) -> References:
    """Resolve every column reference of *rule* in one walk.

    *rule* may be any object with ``schema``, ``table``, ``condition``
    and ``actions`` (the server resolves bare user statements through
    such a stand-in, whose empty ``table`` no transition table can
    name)."""
    walk = _Walk(rule)
    if rule.condition is not None:
        walk.expression(rule.condition)
    for action in rule.actions:
        # An action select is observable output and an insert's query
        # becomes the inserted rows: both outputs are read as values.
        if isinstance(action, ast.Select):
            walk.select(action)
        elif isinstance(action, ast.Insert):
            for row in action.rows:
                for value in row:
                    walk.expression(value)
            if action.query is not None:
                walk.select(action.query)
        elif isinstance(action, (ast.Delete, ast.Update)):
            target = walk.actual(action.table)
            bindings = {(action.alias or action.table).lower(): target}
            if action.alias:
                bindings[action.table.lower()] = target
            scopes = (bindings,)
            if isinstance(action, ast.Update):
                for assignment in action.assignments:
                    walk.expression(assignment.value, scopes)
            if action.where is not None:
                walk.expression(action.where, scopes)
    return References(
        schema=rule.schema,
        selects=tuple(walk.selects),
        columns=tuple(walk.columns),
    )


class _Walk:
    """The state of one :func:`resolve_references` walk.

    A scope chain is a tuple of binding levels, innermost first; each
    level maps a binding name (table or alias) to the table it reads."""

    def __init__(self, rule: Rule) -> None:
        self.schema = rule.schema
        self.table = rule.table
        self.selects: list[SelectFacts | None] = []
        self.columns: list[ColumnFacts] = []

    def actual(self, name: str) -> str:
        """The table *name* reads: the rule's own for a transition
        table."""
        name = name.lower()
        return self.table if name in ast.TRANSITION_TABLE_NAMES else name

    def has_column(self, table: str, column: str) -> bool:
        return self.schema.has_table(table) and self.schema.table(
            table
        ).has_column(column)

    def select(
        self,
        select: ast.Select,
        scopes: tuple[dict[str, str], ...] = (),
        enclosing: tuple[int, ...] = (),
        context_read: bool = True,
        output_read: bool = True,
    ) -> None:
        """Record *select* and everything under it. *context_read* says
        whether the position it sits in is read as a value at all;
        *output_read* whether its output is (False under ``exists``)."""
        index = len(self.selects)
        self.selects.append(None)  # filled in once its expressions are walked
        bindings: dict[str, str] = {}
        from_tables = []
        for ref in select.tables:
            table = self.actual(ref.name)
            bindings[ref.binding_name.lower()] = table
            from_tables.append(table)
        scopes = (bindings,) + scopes
        enclosing = (index,) + enclosing
        value_read = context_read and output_read
        counts_rows = False
        for item in select.items:
            counts_rows |= self.expression(
                item.expr, scopes, enclosing, value_read
            )
        clauses = [select.where, *select.group_by, select.having]
        for expr in clauses:
            if expr is not None:
                counts_rows |= self.expression(
                    expr, scopes, enclosing, context_read
                )
        self.selects[index] = SelectFacts(
            from_tables=tuple(from_tables),
            star=select.is_star,
            value_read=value_read,
            counts_rows=counts_rows,
        )

    def expression(
        self,
        expr: ast.Expression,
        scopes: tuple[dict[str, str], ...] = (),
        enclosing: tuple[int, ...] = (),
        value_read: bool = True,
    ) -> bool:
        """Record *expr*'s references and subqueries; returns whether
        ``count(*)`` appears in it outside its subqueries."""
        counts_rows = False
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.ColumnRef):
                self.columns.append(
                    self.column(node, scopes, enclosing, value_read)
                )
            elif isinstance(node, ast.FuncCall):
                counts_rows |= node.star
            elif isinstance(node, ast.Exists):
                self.select(
                    node.subquery, scopes, enclosing, value_read, False
                )
            elif isinstance(node, (ast.InSubquery, ast.ScalarSubquery)):
                self.select(
                    node.subquery, scopes, enclosing, value_read, True
                )
        return counts_rows

    def column(
        self,
        ref: ast.ColumnRef,
        scopes: tuple[dict[str, str], ...],
        enclosing: tuple[int, ...],
        value_read: bool,
    ) -> ColumnFacts:
        column = ref.column.lower()
        if ref.table:
            qualifier = ref.table.lower()
            table = next(
                (level[qualifier] for level in scopes if qualifier in level),
                None,
            )
            if table is None:
                table = self.actual(qualifier)
            tables: tuple[str, ...] = (table,)
            known = self.has_column(table, column)
        else:
            tables = ()
            for level in scopes:
                found = dict.fromkeys(
                    table
                    for table in level.values()
                    if self.has_column(table, column)
                )
                if found:
                    tables = tuple(found)
                    break
            known = bool(tables)
        return ColumnFacts(
            ref=ref,
            column=column,
            tables=tables,
            known=known,
            selects=enclosing,
            value_read=value_read,
        )
