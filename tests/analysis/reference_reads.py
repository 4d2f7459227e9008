"""The scoped walkers that ``repro.analysis.scoping`` replaced.

Before one module decided how a rule's column references resolve, four
walks each carried their own copy of the scoping rules: ``Reads`` in
``repro.analysis.derived``, ``ColumnReads``/``RowReadTables`` in
``repro.analysis.dataflow``, the RPL006/RPL008 lint passes, and the
closed-WHERE check of ``repro.analysis.commutativity``. They are kept
here unchanged as the reference the folds over
:func:`~repro.analysis.scoping.resolve_references` are checked against
(``tests/analysis/test_reference_equivalence.py``). The two lint passes
return their messages instead of yielding diagnostics.
"""

from __future__ import annotations

from typing import Iterator

from repro.lang import ast
from repro.rules.rule import Rule


# ----------------------------------------------------------------------
# Reads (repro.analysis.derived)
# ----------------------------------------------------------------------


class _Scope:
    """One level of table bindings for column-reference resolution.

    Maps binding names (table name or alias) to the *actual* table read:
    a transition-table binding resolves to the rule's own table, per the
    paper ("for every (trans).c referenced ... t.c is in Reads(r) for
    r's triggering table t").
    """

    def __init__(self, outer: "_Scope | None" = None) -> None:
        self.bindings: dict[str, str] = {}
        self.outer = outer

    def bind(self, name: str, actual_table: str) -> None:
        self.bindings[name.lower()] = actual_table.lower()

    def resolve_qualified(self, binding: str) -> str | None:
        scope: _Scope | None = self
        binding = binding.lower()
        while scope is not None:
            if binding in scope.bindings:
                return scope.bindings[binding]
            scope = scope.outer
        return None

    def candidate_tables(self, column: str, rule: Rule) -> list[str]:
        """Tables that could supply an unqualified *column*: every bound
        table (innermost level first) that has the column."""
        scope: _Scope | None = self
        column = column.lower()
        while scope is not None:
            found = [
                actual
                for actual in scope.bindings.values()
                if rule.schema.has_table(actual)
                and rule.schema.table(actual).has_column(column)
            ]
            if found:
                return found
            scope = scope.outer
        return []


def _compute_reads(rule: Rule) -> frozenset[tuple[str, str]]:
    """``Reads(r)``: every ``t.c`` referenced in a select or where clause
    of ``r``'s condition or action (conservatively resolved).

    A select's result also depends on the rows of each FROM table, even
    one it names no column of (``exists (select 1 from t)``, the unnamed
    factor of ``select u.w from t, u``). Each select charges such a table
    with all its columns, as ``select *`` and ``count(*)`` are charged;
    otherwise inserts into and deletes from ``t`` would miss Lemma 6.1
    condition 3."""
    reads: set[tuple[str, str]] = set()
    root = _Scope()

    if rule.condition is not None:
        _reads_of_expression(rule.condition, root, rule, reads)

    for action in rule.actions:
        if isinstance(action, ast.Select):
            _reads_of_select(action, root, rule, reads)
        elif isinstance(action, ast.Insert):
            scope = _Scope(outer=root)
            for row in action.rows:
                for value in row:
                    _reads_of_expression(value, scope, rule, reads)
            if action.query is not None:
                _reads_of_select(action.query, root, rule, reads)
        elif isinstance(action, ast.Delete):
            scope = _Scope(outer=root)
            _bind_table(scope, action.alias or action.table, action.table, rule)
            if action.alias:
                _bind_table(scope, action.table, action.table, rule)
            if action.where is not None:
                _reads_of_expression(action.where, scope, rule, reads)
        elif isinstance(action, ast.Update):
            scope = _Scope(outer=root)
            _bind_table(scope, action.alias or action.table, action.table, rule)
            if action.alias:
                _bind_table(scope, action.table, action.table, rule)
            for assignment in action.assignments:
                _reads_of_expression(assignment.value, scope, rule, reads)
            if action.where is not None:
                _reads_of_expression(action.where, scope, rule, reads)
    return frozenset(reads)


def _bind_table(scope: _Scope, binding: str, table: str, rule: Rule) -> None:
    table = table.lower()
    if table in ast.TRANSITION_TABLE_NAMES:
        scope.bind(binding, rule.table)
    else:
        scope.bind(binding, table)


def _reads_of_select(
    select: ast.Select,
    outer: _Scope,
    rule: Rule,
    reads: set[tuple[str, str]],
) -> None:
    scope = _Scope(outer=outer)
    from_tables: list[str] = []
    for ref in select.tables:
        _bind_table(scope, ref.binding_name, ref.name, rule)
        actual = (
            rule.table
            if ref.name.lower() in ast.TRANSITION_TABLE_NAMES
            else ref.name.lower()
        )
        from_tables.append(actual)

    own: set[tuple[str, str]] = set()
    if select.is_star:
        for table in from_tables:
            _read_every_column(table, rule, own)
    else:
        for item in select.items:
            _reads_of_expression(
                item.expr, scope, rule, own, star_tables=from_tables
            )

    if select.where is not None:
        _reads_of_expression(
            select.where, scope, rule, own, star_tables=from_tables
        )
    for key in select.group_by:
        _reads_of_expression(
            key, scope, rule, own, star_tables=from_tables
        )
    if select.having is not None:
        _reads_of_expression(
            select.having, scope, rule, own, star_tables=from_tables
        )

    # A FROM table the select names no column of still decides its
    # result through its rows (see _compute_reads).
    named = {table for table, __ in own}
    for table in from_tables:
        if table not in named:
            _read_every_column(table, rule, own)
    reads |= own


def _read_every_column(
    table: str, rule: Rule, reads: set[tuple[str, str]]
) -> None:
    if rule.schema.has_table(table):
        for column in rule.schema.table(table).column_names:
            reads.add((table, column))


def _reads_of_expression(
    expr: ast.Expression,
    scope: _Scope,
    rule: Rule,
    reads: set[tuple[str, str]],
    star_tables: list[str] | None = None,
) -> None:
    for node in ast.walk_expression(expr):
        if isinstance(node, ast.FuncCall) and node.star:
            # count(*) mentions no column but depends on every FROM
            # table's row set; conservatively charge it with reading all
            # their columns, like a bare ``select *`` (the attribute-
            # level pass in dataflow.py tracks this more precisely as a
            # row-membership read).
            for table in star_tables or []:
                _read_every_column(table, rule, reads)
        elif isinstance(node, ast.ColumnRef):
            if node.table:
                actual = scope.resolve_qualified(node.table)
                if actual is None:
                    # A qualified reference to an unbound name: resolve
                    # transition tables to the rule's table; otherwise
                    # assume it names a base table directly.
                    if node.table.lower() in ast.TRANSITION_TABLE_NAMES:
                        actual = rule.table
                    else:
                        actual = node.table.lower()
                if rule.schema.has_table(actual) and rule.schema.table(
                    actual
                ).has_column(node.column):
                    reads.add((actual, node.column.lower()))
            else:
                for table in scope.candidate_tables(node.column, rule):
                    reads.add((table, node.column.lower()))
        elif isinstance(node, (ast.InSubquery, ast.Exists)):
            _reads_of_select(node.subquery, scope, rule, reads)
        elif isinstance(node, ast.ScalarSubquery):
            _reads_of_select(node.subquery, scope, rule, reads)


# ----------------------------------------------------------------------
# ColumnReads and RowReadTables (repro.analysis.dataflow)
# ----------------------------------------------------------------------


def compute_column_reads(rule: Rule) -> frozenset[tuple[str, str]]:
    """``ColumnReads(r)``: the ``(table, column)`` pairs whose values the
    rule depends on.

    Differs from the Section 3 ``Reads`` exactly where only existence
    matters: an ``EXISTS (SELECT * ...)`` contributes its WHERE / GROUP
    BY / HAVING columns but not the starred output, and ``count(*)``
    contributes nothing (its value is pure row membership, tracked by
    :func:`compute_row_read_tables`).
    """
    reads: set[tuple[str, str]] = set()
    root = _Scope()

    if rule.condition is not None:
        _column_reads_of_expression(rule.condition, root, rule, reads)

    for action in rule.actions:
        if isinstance(action, ast.Select):
            # An action select is observable output: every produced
            # column is genuinely read.
            _column_reads_of_select(
                action, root, rule, reads, output_matters=True
            )
        elif isinstance(action, ast.Insert):
            scope = _Scope(outer=root)
            for row in action.rows:
                for value in row:
                    _column_reads_of_expression(value, scope, rule, reads)
            if action.query is not None:
                # The selected values become the inserted row: read.
                _column_reads_of_select(
                    action.query, root, rule, reads, output_matters=True
                )
        elif isinstance(action, ast.Delete):
            scope = _Scope(outer=root)
            _bind_table(scope, action.alias or action.table, action.table, rule)
            if action.alias:
                _bind_table(scope, action.table, action.table, rule)
            if action.where is not None:
                _column_reads_of_expression(action.where, scope, rule, reads)
        elif isinstance(action, ast.Update):
            scope = _Scope(outer=root)
            _bind_table(scope, action.alias or action.table, action.table, rule)
            if action.alias:
                _bind_table(scope, action.table, action.table, rule)
            for assignment in action.assignments:
                _column_reads_of_expression(
                    assignment.value, scope, rule, reads
                )
            if action.where is not None:
                _column_reads_of_expression(action.where, scope, rule, reads)
    return frozenset(reads)


def compute_row_read_tables(rule: Rule) -> frozenset[str]:
    """``RowReadTables(r)``: tables whose row membership the rule's
    behavior depends on (transition tables resolved to the rule's own
    table, mirroring ``Reads``)."""
    tables: set[str] = set()

    def resolve(name: str) -> str:
        name = name.lower()
        if name in ast.TRANSITION_TABLE_NAMES:
            return rule.table
        return name

    selects: list[ast.Select] = []
    if rule.condition is not None:
        selects.extend(ast.subqueries_of(rule.condition))
    for action in rule.actions:
        selects.extend(ast.selects_of_statement(action))

    for select in selects:
        for ref in select.tables:
            tables.add(resolve(ref.name))
    return frozenset(tables)


def _select_scope(
    select: ast.Select, outer: _Scope, rule: Rule
) -> tuple[_Scope, list[str]]:
    scope = _Scope(outer=outer)
    from_tables: list[str] = []
    for ref in select.tables:
        _bind_table(scope, ref.binding_name, ref.name, rule)
        actual = (
            rule.table
            if ref.name.lower() in ast.TRANSITION_TABLE_NAMES
            else ref.name.lower()
        )
        from_tables.append(actual)
    return scope, from_tables


def _column_reads_of_select(
    select: ast.Select,
    outer: _Scope,
    rule: Rule,
    reads: set[tuple[str, str]],
    *,
    output_matters: bool,
) -> None:
    scope, from_tables = _select_scope(select, outer, rule)

    if output_matters:
        if select.is_star:
            for table in from_tables:
                if rule.schema.has_table(table):
                    for column in rule.schema.table(table).column_names:
                        reads.add((table, column))
        else:
            for item in select.items:
                _column_reads_of_expression(item.expr, scope, rule, reads)
    # In an existence-only context the output columns are irrelevant:
    # only the predicates deciding *which* rows exist are value reads.
    # (DISTINCT over the items still cannot matter for existence — a
    # nonempty result stays nonempty under DISTINCT.)

    if select.where is not None:
        _column_reads_of_expression(select.where, scope, rule, reads)
    for key in select.group_by:
        _column_reads_of_expression(key, scope, rule, reads)
    if select.having is not None:
        _column_reads_of_expression(select.having, scope, rule, reads)


def _column_reads_of_expression(
    expr: ast.Expression,
    scope: _Scope,
    rule: Rule,
    reads: set[tuple[str, str]],
) -> None:
    for node in ast.walk_expression(expr):
        if isinstance(node, ast.ColumnRef):
            if node.table:
                actual = scope.resolve_qualified(node.table)
                if actual is None:
                    if node.table.lower() in ast.TRANSITION_TABLE_NAMES:
                        actual = rule.table
                    else:
                        actual = node.table.lower()
                if rule.schema.has_table(actual) and rule.schema.table(
                    actual
                ).has_column(node.column):
                    reads.add((actual, node.column.lower()))
            else:
                for table in scope.candidate_tables(node.column, rule):
                    reads.add((table, node.column.lower()))
        elif isinstance(node, ast.FuncCall) and node.star:
            # count(*): pure row-membership — no column values read.
            continue
        elif isinstance(node, ast.Exists):
            _column_reads_of_select(
                node.subquery, scope, rule, reads, output_matters=False
            )
        elif isinstance(node, ast.InSubquery):
            _column_reads_of_select(
                node.subquery, scope, rule, reads, output_matters=True
            )
        elif isinstance(node, ast.ScalarSubquery):
            _column_reads_of_select(
                node.subquery, scope, rule, reads, output_matters=True
            )


# ----------------------------------------------------------------------
# RPL006 / RPL008 (repro.lint.passes)
# ----------------------------------------------------------------------


def _scoped_expressions(
    rule: Rule,
) -> Iterator[tuple[ast.Expression, _Scope]]:
    """Every top-level expression of *rule* with the scope the analyses
    resolve it under — the exact scoping of ``derived._compute_reads``."""
    root = _Scope()
    if rule.condition is not None:
        yield rule.condition, root
    for action in rule.actions:
        if isinstance(action, ast.Select):
            yield from _select_expressions(action, root, rule)
        elif isinstance(action, ast.Insert):
            scope = _Scope(outer=root)
            for row in action.rows:
                for value in row:
                    yield value, scope
            if action.query is not None:
                yield from _select_expressions(action.query, root, rule)
        elif isinstance(action, (ast.Delete, ast.Update)):
            scope = _Scope(outer=root)
            _bind_table(scope, action.alias or action.table, action.table, rule)
            if action.alias:
                _bind_table(scope, action.table, action.table, rule)
            if isinstance(action, ast.Update):
                for assignment in action.assignments:
                    yield assignment.value, scope
            if action.where is not None:
                yield action.where, scope


def _select_expressions(
    select: ast.Select, outer: _Scope, rule: Rule
) -> Iterator[tuple[ast.Expression, _Scope]]:
    scope = _Scope(outer=outer)
    for ref in select.tables:
        _bind_table(scope, ref.binding_name, ref.name, rule)
    for item in select.items:
        yield item.expr, scope
    if select.where is not None:
        yield select.where, scope
    for key in select.group_by:
        yield key, scope
    if select.having is not None:
        yield select.having, scope


def _column_refs_with_scopes(
    rule: Rule,
) -> Iterator[tuple[ast.ColumnRef, _Scope]]:
    pending = list(_scoped_expressions(rule))
    while pending:
        expr, scope = pending.pop(0)
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.ColumnRef):
                yield node, scope
            elif isinstance(node, (ast.InSubquery, ast.Exists)):
                pending.extend(
                    _select_expressions(node.subquery, scope, rule)
                )
            elif isinstance(node, ast.ScalarSubquery):
                pending.extend(
                    _select_expressions(node.subquery, scope, rule)
                )


def unknown_column_messages(rule: Rule) -> list[str]:
    """RPL006's messages for *rule*, in the order the pass found them."""
    schema = rule.schema
    seen: list[str] = []
    for ref, scope in _column_refs_with_scopes(rule):
        if ref.table:
            actual = scope.resolve_qualified(ref.table)
            if actual is None:
                if ref.table.lower() in ast.TRANSITION_TABLE_NAMES:
                    actual = rule.table
                else:
                    actual = ref.table.lower()
            if not schema.has_table(actual):
                message = (
                    f"reference {ref.table}.{ref.column} resolves "
                    f"to unknown table {actual!r}"
                )
            elif not schema.table(actual).has_column(ref.column):
                message = (
                    f"reference {ref.table}.{ref.column}: table "
                    f"{actual!r} has no column {ref.column.lower()!r}"
                )
            else:
                continue
        else:
            if scope.candidate_tables(ref.column, rule):
                continue
            message = (
                f"unqualified column {ref.column!r} matches no "
                f"table in scope"
            )
        if message not in seen:
            seen.append(message)
    return seen


def ambiguous_column_messages(rule: Rule) -> list[str]:
    """RPL008's messages for *rule*, in the order the pass found them."""
    seen: list[str] = []
    for ref, scope in _column_refs_with_scopes(rule):
        if ref.table:
            continue
        candidates = scope.candidate_tables(ref.column, rule)
        if len(set(candidates)) <= 1:
            continue
        tables = ", ".join(sorted(set(candidates)))
        message = (
            f"unqualified column {ref.column!r} is ambiguous: it "
            f"matches {tables}; the analysis charges reads of all "
            f"of them"
        )
        if message not in seen:
            seen.append(message)
    return seen


# ----------------------------------------------------------------------
# The closed-WHERE check (repro.analysis.commutativity)
# ----------------------------------------------------------------------


def _reads_only_via_closed_wheres(rule, table: str) -> bool:
    """True when *rule*'s only contact with *table* is the WHERE clause
    of its own deletes/updates on that table — no SELECT anywhere in its
    condition or action references it (directly or as a transition
    table of a rule defined on it)."""
    selects = []
    if rule.condition is not None:
        selects.extend(ast.subqueries_of(rule.condition))
    for action in rule.actions:
        selects.extend(ast.selects_of_statement(action))
    for select in selects:
        for ref in select.tables:
            name = ref.name.lower()
            if name == table:
                return False
            if name in ast.TRANSITION_TABLE_NAMES and rule.table == table:
                return False
    return True
