"""Abstract syntax trees for the SQL subset and rule definitions.

All nodes are immutable dataclasses so they can be shared freely between
the parser, the static analyzers, and the runtime. Expression nodes form
one hierarchy rooted at :class:`Expression`; statements form a second
hierarchy rooted at :class:`Statement`.

Transition tables (``inserted``, ``deleted``, ``new_updated``,
``old_updated``) appear as ordinary :class:`TableRef` names; the binder
in :mod:`repro.engine.query` resolves them against the triggering rule's
transition at execution time, and :mod:`repro.analysis.scoping` resolves
them against the rule's table for the static analyses (``Reads``, the
dataflow read sets, lint).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

#: Names that refer to transition tables inside rule conditions/actions.
TRANSITION_TABLE_NAMES = frozenset(
    {"inserted", "deleted", "new_updated", "old_updated"}
)


class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    """A constant: integer, float, string, boolean, or NULL (``value=None``).

    Two literals are equal when their values have the same type and
    compare equal. Python's value equality alone would make
    ``Literal(1)``, ``Literal(True)`` and ``Literal(1.0)`` one key,
    although they evaluate differently (``a + true`` raises, ``a + 1``
    does not); comparing by type keeps every AST-keyed memo — compiled
    predicates, plans, match-network nodes — exact with the AST alone.
    """

    value: Union[int, float, str, bool, None]

    def __eq__(self, other) -> bool:
        if other.__class__ is not Literal:
            return NotImplemented
        value, other_value = self.value, other.value
        return (type(value), value) == (type(other_value), other_value)

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly-qualified column reference ``[table.]column``."""

    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operation: arithmetic, comparison, ``and``/``or``, ``||``."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """A unary operation: ``-`` (negation) or ``not``."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (item, item, ...)`` with literal/expression items."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesized SELECT used as a scalar value."""

    subquery: "Select"


@dataclass(frozen=True)
class FuncCall(Expression):
    """An aggregate or scalar function call, e.g. ``count(*)``, ``abs(x)``.

    ``star`` marks ``count(*)``; ``distinct`` marks ``count(distinct e)``.
    """

    name: str
    args: tuple[Expression, ...] = ()
    star: bool = False
    distinct: bool = False


#: Aggregate function names recognized by the query executor.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "min", "max", "avg"})


class Statement:
    """Base class for all statement nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class TableRef:
    """A table in a FROM clause, with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        """The name this table is referenced by inside the query."""
        return self.alias or self.name


@dataclass(frozen=True)
class SelectItem:
    """One output column of a SELECT: an expression with an optional alias."""

    expr: Expression
    alias: str | None = None


@dataclass(frozen=True)
class Select(Statement):
    """``SELECT [DISTINCT] items FROM tables [WHERE predicate]
    [GROUP BY exprs [HAVING predicate]]``.

    ``items`` empty means ``SELECT *``. Joins are expressed as a
    comma-separated table list with the join predicate in the WHERE
    clause (the style used throughout the paper's era of SQL).
    """

    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Expression | None = None
    distinct: bool = False
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None

    def __post_init__(self) -> None:
        if self.having is not None and not self.group_by:
            raise ValueError("HAVING requires GROUP BY")

    @property
    def is_star(self) -> bool:
        return not self.items


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO table VALUES (...), ...`` or ``INSERT INTO table (SELECT ...)``."""

    table: str
    rows: tuple[tuple[Expression, ...], ...] = ()
    query: Select | None = None

    def __post_init__(self) -> None:
        if bool(self.rows) == (self.query is not None):
            raise ValueError("Insert requires exactly one of rows or query")


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM table [alias] [WHERE predicate]``."""

    table: str
    alias: str | None = None
    where: Expression | None = None


@dataclass(frozen=True)
class Assignment:
    """One ``column = expression`` clause of an UPDATE."""

    column: str
    value: Expression


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE table [alias] SET assignments [WHERE predicate]``."""

    table: str
    assignments: tuple[Assignment, ...]
    alias: str | None = None
    where: Expression | None = None


@dataclass(frozen=True)
class Rollback(Statement):
    """``ROLLBACK ['message']`` — aborts the transaction; observable."""

    message: str = ""


class TriggerKind(enum.Enum):
    """The three triggering operations of the transition predicate."""

    INSERTED = "inserted"
    DELETED = "deleted"
    UPDATED = "updated"


@dataclass(frozen=True)
class TriggerSpec:
    """One element of a rule's ``when`` clause.

    For ``updated`` an empty column tuple means "updated on any column".
    """

    kind: TriggerKind
    columns: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.kind is TriggerKind.UPDATED and self.columns:
            return f"updated({', '.join(self.columns)})"
        return self.kind.value


@dataclass(frozen=True)
class RuleDefinition(Statement):
    """A complete ``create rule`` statement."""

    name: str
    table: str
    triggers: tuple[TriggerSpec, ...]
    actions: tuple[Statement, ...]
    condition: Expression | None = None
    precedes: tuple[str, ...] = ()
    follows: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.triggers:
            raise ValueError("a rule needs at least one triggering operation")
        if not self.actions:
            raise ValueError("a rule needs at least one action")


#: :func:`literal_value`'s answer for an expression that is not a literal
#: (``None`` is the value of the NULL literal)
NOT_LITERAL = object()


def literal_value(expr: Expression):
    """The constant *expr* denotes: a literal's value, or the negation
    of an int or float literal (``-3``, ``-0.5``). Anything else,
    ``-true`` included (the evaluator refuses to negate a bool), is
    :data:`NOT_LITERAL`."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(
        expr.operand, Literal
    ):
        value = expr.operand.value
        if type(value) in (int, float):
            return -value
    return NOT_LITERAL


def conjuncts(expr: Expression):
    """Yield the AND-conjuncts of *expr*, in source order (an expression
    that is not an ``and`` is its own single conjunct)."""
    if isinstance(expr, BinaryOp) and expr.op == "and":
        yield from conjuncts(expr.left)
        yield from conjuncts(expr.right)
    else:
        yield expr


def contains_aggregate(expr: Expression) -> bool:
    """Whether *expr* calls an aggregate function outside any subquery
    (a subquery computes its own aggregates)."""
    return any(
        isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS
        for node in walk_expression(expr)
    )


def walk_expression(expr: Expression):
    """Yield *expr* and every expression node nested inside it.

    Subqueries are *not* descended into here (an ``IN`` subquery's
    operand is); use :func:`subqueries_of` or
    :func:`expressions_of_statement` on the subquery's Select if full
    traversal is needed. This split lets an analysis open a new scope at
    each subquery, as :mod:`repro.analysis.scoping` does.
    """
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, IsNull):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, Between):
        yield from walk_expression(expr.operand)
        yield from walk_expression(expr.low)
        yield from walk_expression(expr.high)
    elif isinstance(expr, InList):
        yield from walk_expression(expr.operand)
        for item in expr.items:
            yield from walk_expression(item)
    elif isinstance(expr, InSubquery):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_expression(arg)


def subqueries_of(expr: Expression):
    """Yield every Select nested anywhere inside *expr* (recursively)."""
    for node in walk_expression(expr):
        if isinstance(node, (InSubquery, Exists)):
            yield node.subquery
            yield from _subqueries_of_select(node.subquery)
        elif isinstance(node, ScalarSubquery):
            yield node.subquery
            yield from _subqueries_of_select(node.subquery)


def _subqueries_of_select(select: Select):
    for item in select.items:
        yield from subqueries_of(item.expr)
    if select.where is not None:
        yield from subqueries_of(select.where)
    for key in select.group_by:
        yield from subqueries_of(key)
    if select.having is not None:
        yield from subqueries_of(select.having)


def expressions_of_statement(stmt: Statement):
    """Yield the top-level expressions appearing in *stmt*.

    This enumerates exactly the value expressions and predicates a reader
    of the statement would see: SELECT items and WHERE clauses, INSERT
    row values, UPDATE assignments, etc.
    """
    if isinstance(stmt, Select):
        for item in stmt.items:
            yield item.expr
        if stmt.where is not None:
            yield stmt.where
        for key in stmt.group_by:
            yield key
        if stmt.having is not None:
            yield stmt.having
    elif isinstance(stmt, Insert):
        for row in stmt.rows:
            yield from row
        if stmt.query is not None:
            yield from expressions_of_statement(stmt.query)
    elif isinstance(stmt, Delete):
        if stmt.where is not None:
            yield stmt.where
    elif isinstance(stmt, Update):
        for assignment in stmt.assignments:
            yield assignment.value
        if stmt.where is not None:
            yield stmt.where
    elif isinstance(stmt, Rollback):
        return
    else:
        raise TypeError(f"unsupported statement type: {type(stmt).__name__}")


def selects_of_statement(stmt: Statement):
    """Yield every Select reachable from *stmt*, including nested subqueries."""
    if isinstance(stmt, Select):
        yield stmt
    if isinstance(stmt, Insert) and stmt.query is not None:
        yield stmt.query
    for expr in expressions_of_statement(stmt):
        yield from subqueries_of(expr)
