"""Condition satisfiability checks: constant folding + interval analysis.

Two cheap, purely syntactic engines power the RPL004 lint pass:

* **Constant folding** reuses the runtime expression evaluator on an
  empty row context: any (sub)expression with no column references and
  no subqueries evaluates to its SQL value, three-valued logic included.
  A rule condition folding to FALSE or UNKNOWN can never be satisfied
  (Starburst runs the action only when the condition is *true*).

* **Interval analysis** looks at the top-level conjuncts of a predicate
  and accumulates, per column reference, the bounds imposed by
  ``column op literal`` comparisons. An empty interval — ``c > 5 and
  c < 3``, ``c = 1 and c = 2``, ``c = 1 and c <> 1`` — proves the
  conjunction unsatisfiable even though no single conjunct folds.

Both are *definitely-unsatisfiable* proofs: :func:`unsatisfiable`
returning ``None`` means nothing was proven, never that the condition
is satisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.expressions import Evaluator, RowContext
from repro.engine.values import sql_is_truthy
from repro.errors import ReproError
from repro.lang import ast

_UNFOLDABLE = object()


def fold_constant(expr: ast.Expression):
    """The SQL value of *expr* when it is a closed constant expression,
    else the ``_UNFOLDABLE`` sentinel (exposed via :func:`is_folded`)."""
    try:
        return Evaluator(provider=None).evaluate(expr, RowContext())
    except (ReproError, ZeroDivisionError, TypeError, AttributeError):
        # AttributeError: a subquery reached the provider-less evaluator;
        # the expression is not a closed constant.
        return _UNFOLDABLE


def is_folded(value) -> bool:
    return value is not _UNFOLDABLE


def _render_value(value) -> str:
    if value is None:
        return "UNKNOWN"
    return str(value)


# ----------------------------------------------------------------------
# Interval accumulation
# ----------------------------------------------------------------------

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


@dataclass
class _Interval:
    """Accumulated constraints on one column reference."""

    lower: object = None
    lower_strict: bool = False
    upper: object = None
    upper_strict: bool = False
    equal: object = None
    has_equal: bool = False
    not_equal: set = field(default_factory=set)
    equality_conflict: str | None = None

    def add(self, op: str, value) -> None:
        if op == "=":
            if not self.has_equal:
                self.equal = value
                self.has_equal = True
            elif self.equal != value:
                self.equality_conflict = (
                    f"= {self.equal!r} contradicts = {value!r}"
                )
        elif op == "<>":
            self.not_equal.add(value)
        elif op in ("<", "<="):
            strict = op == "<"
            if self.upper is None or _lt(value, self.upper) or (
                value == self.upper and strict and not self.upper_strict
            ):
                self.upper = value
                self.upper_strict = strict
        elif op in (">", ">="):
            strict = op == ">"
            if self.lower is None or _lt(self.lower, value) or (
                value == self.lower and strict and not self.lower_strict
            ):
                self.lower = value
                self.lower_strict = strict

    def contradiction(self) -> str | None:
        if self.equality_conflict is not None:
            return self.equality_conflict
        if self.has_equal:
            if self.equal in self.not_equal:
                return f"= {self.equal!r} contradicts <> {self.equal!r}"
            if self.lower is not None and (
                _lt(self.equal, self.lower)
                or (self.equal == self.lower and self.lower_strict)
            ):
                op = ">" if self.lower_strict else ">="
                return f"= {self.equal!r} contradicts {op} {self.lower!r}"
            if self.upper is not None and (
                _lt(self.upper, self.equal)
                or (self.equal == self.upper and self.upper_strict)
            ):
                op = "<" if self.upper_strict else "<="
                return f"= {self.equal!r} contradicts {op} {self.upper!r}"
            return None
        if self.lower is not None and self.upper is not None:
            if _lt(self.upper, self.lower) or (
                self.lower == self.upper
                and (self.lower_strict or self.upper_strict)
            ):
                low_op = ">" if self.lower_strict else ">="
                up_op = "<" if self.upper_strict else "<="
                return (
                    f"{low_op} {self.lower!r} contradicts "
                    f"{up_op} {self.upper!r}"
                )
        return None


def _lt(a, b) -> bool:
    try:
        return a < b
    except TypeError:
        return False


def _column_key(expr: ast.Expression) -> str | None:
    if isinstance(expr, ast.ColumnRef):
        if expr.table:
            return f"{expr.table.lower()}.{expr.column.lower()}"
        return expr.column.lower()
    return None


def conjunction_contradiction(conjuncts: list[ast.Expression]) -> str | None:
    """An interval contradiction among *conjuncts*, or ``None``.

    Only ``column op literal-constant`` comparisons participate; every
    other conjunct is ignored (it can only further restrict the row
    set, so ignoring it is sound for an unsatisfiability proof).
    """
    intervals: dict[str, _Interval] = {}
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        if conjunct.op not in _FLIPPED:
            continue
        key = _column_key(conjunct.left)
        op = conjunct.op
        other = conjunct.right
        if key is None:
            key = _column_key(conjunct.right)
            op = _FLIPPED[conjunct.op]
            other = conjunct.left
        if key is None:
            continue
        value = fold_constant(other)
        if not is_folded(value) or value is None:
            continue
        intervals.setdefault(key, _Interval()).add(op, value)
    for key in sorted(intervals):
        conflict = intervals[key].contradiction()
        if conflict is not None:
            return f"{key}: {conflict}"
    return None


# ----------------------------------------------------------------------
# The combined satisfiability verdict
# ----------------------------------------------------------------------


def unsatisfiable(expr: ast.Expression, _depth: int = 0) -> str | None:
    """A proof that *expr* can never be SQL-true, or ``None``.

    Combines whole-expression folding, per-conjunct folding, interval
    contradictions, disjunction recursion (an OR is unsatisfiable only
    when both branches are), and positive-``EXISTS`` recursion (an
    ``EXISTS`` whose subquery WHERE is unsatisfiable yields no rows).
    """
    if _depth > 8:
        return None

    value = fold_constant(expr)
    if is_folded(value):
        if not sql_is_truthy(value):
            return f"folds to {_render_value(value)}"
        return None

    if isinstance(expr, ast.BinaryOp) and expr.op == "or":
        left = unsatisfiable(expr.left, _depth + 1)
        if left is None:
            return None
        right = unsatisfiable(expr.right, _depth + 1)
        if right is None:
            return None
        return f"both OR branches unsatisfiable ({left}; {right})"

    conjuncts = list(ast.conjuncts(expr))
    for conjunct in conjuncts:
        if conjunct is expr:
            continue
        folded = fold_constant(conjunct)
        if is_folded(folded) and not sql_is_truthy(folded):
            return f"conjunct folds to {_render_value(folded)}"

    conflict = conjunction_contradiction(conjuncts)
    if conflict is not None:
        return f"contradictory bounds on {conflict}"

    for conjunct in conjuncts:
        if (
            isinstance(conjunct, ast.Exists)
            and not conjunct.negated
            and conjunct.subquery.where is not None
        ):
            inner = unsatisfiable(conjunct.subquery.where, _depth + 1)
            if inner is not None:
                return f"EXISTS subquery WHERE unsatisfiable: {inner}"
    return None
