"""Pretty-printer (unparser) for the rule language.

``parse(format(x))`` round-trips to an equal AST for every node produced
by the parser; the property-based tests in ``tests/lang`` rely on this.
"""

from __future__ import annotations

import decimal
import math

from repro.lang import ast

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 4,
    "<>": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "like": 4,
    "not like": 4,
    "+": 5,
    "-": 5,
    "||": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


def _format_literal(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and math.isfinite(value):
        # The grammar has no exponent, so write repr's shortest
        # round-trip digits positionally (1e-05 -> 0.00001) and keep a
        # dot so the text reads back as a float.
        text = format(decimal.Decimal(repr(value)), "f")
        return text if "." in text else f"{text}.0"
    return str(value)


def format_expression(expr: ast.Expression, parent_precedence: int = 0) -> str:
    """Render *expr* as source text, parenthesizing as needed."""
    if isinstance(expr, ast.Literal):
        return _format_literal(expr.value)

    if isinstance(expr, ast.ColumnRef):
        return str(expr)

    if isinstance(expr, ast.BinaryOp):
        precedence = _PRECEDENCE[expr.op]
        if precedence == 4:
            # Comparisons are non-associative: a nested comparison (or
            # other precedence-4 construct) must be parenthesized on
            # either side.
            left = format_expression(expr.left, 5)
            right = format_expression(expr.right, 5)
        else:
            left = format_expression(expr.left, precedence)
            # Right operand of a same-precedence operator needs
            # parentheses to preserve left associativity (a - (b - c)).
            right = format_expression(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text

    if isinstance(expr, ast.UnaryOp):
        if expr.op == "not":
            inner = format_expression(expr.operand, 3)
            text = f"not {inner}"
            if parent_precedence > 2:
                return f"({text})"
            return text
        inner = format_expression(expr.operand, 7)
        return f"-{inner}"

    if isinstance(expr, ast.IsNull):
        operand = format_expression(expr.operand, 5)
        keyword = "is not null" if expr.negated else "is null"
        text = f"{operand} {keyword}"
        if parent_precedence > 3:
            return f"({text})"
        return text

    if isinstance(expr, ast.Between):
        operand = format_expression(expr.operand, 5)
        low = format_expression(expr.low, 5)
        high = format_expression(expr.high, 5)
        keyword = "not between" if expr.negated else "between"
        text = f"{operand} {keyword} {low} and {high}"
        if parent_precedence > 3:
            return f"({text})"
        return text

    if isinstance(expr, ast.InList):
        operand = format_expression(expr.operand, 5)
        items = ", ".join(format_expression(item) for item in expr.items)
        keyword = "not in" if expr.negated else "in"
        text = f"{operand} {keyword} ({items})"
        if parent_precedence > 3:
            return f"({text})"
        return text

    if isinstance(expr, ast.InSubquery):
        operand = format_expression(expr.operand, 5)
        keyword = "not in" if expr.negated else "in"
        text = f"{operand} {keyword} ({format_statement(expr.subquery)})"
        if parent_precedence > 3:
            return f"({text})"
        return text

    if isinstance(expr, ast.Exists):
        keyword = "not exists" if expr.negated else "exists"
        text = f"{keyword} ({format_statement(expr.subquery)})"
        if parent_precedence > 3:
            return f"({text})"
        return text

    if isinstance(expr, ast.ScalarSubquery):
        return f"({format_statement(expr.subquery)})"

    if isinstance(expr, ast.FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = ", ".join(format_expression(arg) for arg in expr.args)
        prefix = "distinct " if expr.distinct else ""
        return f"{expr.name}({prefix}{args})"

    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def _format_table_ref(ref: ast.TableRef) -> str:
    if ref.alias:
        return f"{ref.name} {ref.alias}"
    return ref.name


def format_statement(stmt: ast.Statement) -> str:
    """Render a statement as a single line of source text."""
    if isinstance(stmt, ast.Select):
        if stmt.is_star:
            items = "*"
        else:
            rendered = []
            for item in stmt.items:
                text = format_expression(item.expr)
                if item.alias:
                    text = f"{text} as {item.alias}"
                rendered.append(text)
            items = ", ".join(rendered)
        distinct = "distinct " if stmt.distinct else ""
        tables = ", ".join(_format_table_ref(ref) for ref in stmt.tables)
        text = f"select {distinct}{items} from {tables}"
        if stmt.where is not None:
            text += f" where {format_expression(stmt.where)}"
        if stmt.group_by:
            keys = ", ".join(format_expression(key) for key in stmt.group_by)
            text += f" group by {keys}"
            if stmt.having is not None:
                text += f" having {format_expression(stmt.having)}"
        return text

    if isinstance(stmt, ast.Insert):
        if stmt.query is not None:
            return f"insert into {stmt.table} ({format_statement(stmt.query)})"
        rows = ", ".join(
            "(" + ", ".join(format_expression(value) for value in row) + ")"
            for row in stmt.rows
        )
        return f"insert into {stmt.table} values {rows}"

    if isinstance(stmt, ast.Delete):
        text = f"delete from {stmt.table}"
        if stmt.alias:
            text += f" {stmt.alias}"
        if stmt.where is not None:
            text += f" where {format_expression(stmt.where)}"
        return text

    if isinstance(stmt, ast.Update):
        text = f"update {stmt.table}"
        if stmt.alias:
            text += f" {stmt.alias}"
        assignments = ", ".join(
            f"{assignment.column} = {format_expression(assignment.value)}"
            for assignment in stmt.assignments
        )
        text += f" set {assignments}"
        if stmt.where is not None:
            text += f" where {format_expression(stmt.where)}"
        return text

    if isinstance(stmt, ast.Rollback):
        if stmt.message:
            return f"rollback {_format_literal(stmt.message)}"
        return "rollback"

    raise TypeError(f"unsupported statement type: {type(stmt).__name__}")


def format_rule(rule: ast.RuleDefinition) -> str:
    """Render a full rule definition over multiple lines."""
    lines = [f"create rule {rule.name} on {rule.table}"]
    lines.append("when " + ", ".join(str(trigger) for trigger in rule.triggers))
    if rule.condition is not None:
        lines.append(f"if {format_expression(rule.condition)}")
    actions = ";\n     ".join(format_statement(action) for action in rule.actions)
    lines.append(f"then {actions}")
    if rule.precedes:
        lines.append("precedes " + ", ".join(rule.precedes))
    if rule.follows:
        lines.append("follows " + ", ".join(rule.follows))
    return "\n".join(lines)
