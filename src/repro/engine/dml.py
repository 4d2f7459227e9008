"""Set-oriented DML execution: INSERT, DELETE, UPDATE, SELECT, ROLLBACK.

Statements execute against a :class:`~repro.engine.database.Database`
through a table *provider* (so that rule actions can read transition
tables), and report every tuple they touch to an optional
:class:`~repro.transitions.delta.DeltaLog`.

Semantics are set-oriented, like Starburst's: DELETE and UPDATE first
evaluate their WHERE predicate against the pre-statement state and
collect the target tids, then apply all changes; INSERT ... SELECT fully
evaluates the query before inserting. A statement therefore never
observes its own partial effects.

An aliased target (``update t x set ... where ...``) binds each target
row under the alias, and under the bare table name one context level
further out (:func:`_target_contexts`): an unqualified column resolves
once, to the alias, while ``x.a`` and ``t.a`` both still resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG, ExecutionConfig
from repro.engine import plan as P
from repro.engine import values as V
from repro.engine.database import Database
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.query import DatabaseProvider, QueryResult, execute_select
from repro.engine.values import sql_is_truthy
from repro.errors import (
    EvaluationError,
    ExecutionError,
    ReproError,
    RollbackSignal,
)
from repro.lang import ast
from repro.schema.catalog import ColumnType
from repro.transitions.delta import DeltaLog


@dataclass
class StatementResult:
    """What a statement did: rows affected, and query output if a SELECT."""

    kind: str
    affected: int = 0
    query_result: QueryResult | None = None
    touched_tables: frozenset[str] = field(default_factory=frozenset)


def execute_statement(
    database: Database,
    stmt: ast.Statement,
    provider=None,
    log: DeltaLog | None = None,
    *,
    config: ExecutionConfig | None = None,
) -> StatementResult:
    """Execute one statement; returns a :class:`StatementResult`.

    ``provider`` defaults to a plain :class:`DatabaseProvider` over
    *database*; pass an overlay provider to expose transition tables.
    A :class:`~repro.errors.RollbackSignal` propagates out of ROLLBACK.
    Execution options arrive as an
    :class:`~repro.config.ExecutionConfig`: ``config.planner=False``
    forces the naive reference executor throughout.
    """
    if config is None:
        config = DEFAULT_CONFIG
    if provider is None:
        provider = DatabaseProvider(database)

    if isinstance(stmt, ast.Select):
        result = execute_select(provider, stmt, config=config)
        return StatementResult(
            kind="select", affected=len(result.rows), query_result=result
        )

    if isinstance(stmt, ast.Insert):
        return _execute_insert(database, stmt, provider, log, config)

    if isinstance(stmt, ast.Delete):
        return _execute_delete(database, stmt, provider, log, config)

    if isinstance(stmt, ast.Update):
        return _execute_update(database, stmt, provider, log, config)

    if isinstance(stmt, ast.Rollback):
        raise RollbackSignal(stmt.message)

    raise ExecutionError(f"unsupported statement type: {type(stmt).__name__}")


def execute_script(
    database: Database,
    statements: list[ast.Statement],
    provider=None,
    log: DeltaLog | None = None,
    *,
    config: ExecutionConfig | None = None,
) -> list[StatementResult]:
    """Execute statements in order, stopping on rollback (which re-raises)."""
    return [
        execute_statement(database, stmt, provider=provider, log=log, config=config)
        for stmt in statements
    ]


# ----------------------------------------------------------------------
# INSERT
# ----------------------------------------------------------------------


def _execute_insert(
    database: Database,
    stmt: ast.Insert,
    provider,
    log: DeltaLog | None,
    config: ExecutionConfig,
) -> StatementResult:
    table = stmt.table.lower()
    arity = len(database.schema.table(table))

    if stmt.query is not None:
        rows = list(execute_select(provider, stmt.query, config=config).rows)
    else:
        evaluator = Evaluator(provider, config=config)
        empty = RowContext()
        rows = [
            tuple(evaluator.evaluate(value, empty) for value in row)
            for row in stmt.rows
        ]

    for row in rows:
        if len(row) != arity:
            raise ExecutionError(
                f"insert into {table!r} expects {arity} values, got {len(row)}"
            )

    for row in rows:
        tid = database.insert_row(table, row)
        if log is not None:
            log.record_insert(table, tid, row)

    return StatementResult(
        kind="insert", affected=len(rows), touched_tables=frozenset({table})
    )


# ----------------------------------------------------------------------
# DELETE
# ----------------------------------------------------------------------


#: one value of each column type: whether a probe value compares with a
#: column's values at all is ``values._comparable`` of it and the sample
_TYPE_SAMPLES = {
    ColumnType.INT: 0,
    ColumnType.FLOAT: 0.0,
    ColumnType.STRING: "",
    ColumnType.BOOL: False,
}


def _probed_pairs(
    database: Database,
    table: str,
    layout: P.RowLayout,
    where: ast.Expression,
    evaluator: Evaluator,
):
    """The target candidates an equality-index probe gives, or None
    when the target scan must read every row.

    The first *top-level AND* conjunct of *where* that pins a column to
    a row-independent value (:func:`~repro.engine.plan._as_const_probe`)
    probes :meth:`~repro.engine.storage.TableData.equality_index` on
    that column: any row outside the probed bucket evaluates the
    conjunct to False (or NULL), so under Kleene AND the whole predicate
    cannot be True for it. The column resolves as the target row binds
    (*layout*): a bare ``a`` and ``x.a`` name the alias's column,
    ``t.a`` the table's, which is the same row. A value that raises
    falls back to the full scan, so the scan raises it at the row the
    reference path does, and so does a value ``sql_compare`` would
    refuse to compare with the column's declared type (``a = true`` on
    an integer ``a``): every stored value has that type, so the full
    scan raises at its first non-NULL value, where the index would
    silently match nothing.

    Returns ``(pairs, residual_conjuncts)``: the bucket's ``(tid,
    values)`` pairs in tid order, and the conjuncts still to evaluate
    per row — the probed conjunct is elided, the bucket's key equality
    (:func:`~repro.engine.values.sort_key`, so ``1 = 1.0``) does its
    work. ``pairs`` is empty for a NULL value (``a = NULL`` matches no
    row).
    """
    scope = dict.fromkeys(layout.names, layout.columns)
    conjuncts = list(ast.conjuncts(where))
    for conjunct in conjuncts:
        probe = P._as_const_probe(conjunct, layout, scope)
        if probe is None:
            continue
        try:
            value = evaluator.evaluate(probe.value, RowContext())
        except ReproError:
            return None
        if value is None:
            return [], []
        column_type = database.schema.table(table).column_types[probe.column]
        try:
            V._comparable(_TYPE_SAMPLES[column_type], value, "=")
        except EvaluationError:
            return None
        P.STATS.index_probes += 1
        pairs = database.table(table).equality_pairs(
            (probe.column,), (V.sort_key(value),)
        )
        return pairs, [c for c in conjuncts if c is not conjunct]
    return None


def _target_contexts(
    table: str, binding: str
) -> tuple[RowContext, RowContext | None]:
    """The context a target row binds in, and the level outside it.

    The row binds under *binding* in the first; when *binding* is an
    alias, the caller binds the bare table name in the second, which
    the first chains to. One level holding both names would make every
    unqualified column ambiguous; with the table name outside, the
    alias answers first and ``t.a`` still resolves, as in SQL.
    """
    if binding == table:
        return RowContext(), None
    table_context = RowContext()
    return table_context.child(), table_context


def _target_layout(
    table: str, binding: str, columns: tuple[str, ...]
) -> P.RowLayout:
    """The :class:`~repro.engine.plan.RowLayout` of a target row bound
    as :func:`_target_contexts` binds it."""
    names = (table,) if binding == table else (binding, table)
    return P.RowLayout(names, columns)


def _matching_tids(
    database: Database,
    table: str,
    binding: str,
    where: ast.Expression | None,
    provider,
    config: ExecutionConfig,
) -> list[int]:
    """Tids of rows in *table* satisfying *where* (pre-statement state).

    The planned scan first tries an equality-index probe (see
    :func:`_probed_pairs`); a scan no conjunct narrows walks every row
    in tid order. Both walk ``(tid, values)`` pairs, read each row's
    columns by position and bind the row in a context only when *where*
    reads it there (:func:`repro.engine.plan.compile_row_predicate`).
    """
    if where is None:
        return database.table(table).tids()
    columns = database.schema.table(table).column_names
    evaluator = Evaluator(provider, config=config)
    context, table_context = _target_contexts(table, binding)

    if not config.planner:
        matched = []
        for tid, values in database.table(table).items():
            context.bind(binding, columns, values)
            if table_context is not None:
                table_context.bind(table, columns, values)
            keep = evaluator.evaluate(where, context)
            if sql_is_truthy(keep):
                matched.append(tid)
        return matched

    layout = _target_layout(table, binding, columns)
    probed = _probed_pairs(database, table, layout, where, evaluator)
    if probed is not None:
        pairs, checks = probed
    else:
        pairs, checks = database.table(table).items(), [where]
    compiled = [P.compile_row_predicate(check, layout) for check in checks]
    predicates = [predicate for predicate, __ in compiled]
    bind = any(binds for __, binds in compiled)

    matched = []
    for tid, values in pairs:
        if bind:
            context.bind(binding, columns, values)
            if table_context is not None:
                table_context.bind(table, columns, values)
        for predicate in predicates:
            if not sql_is_truthy(predicate(values, context, evaluator)):
                break
        else:
            matched.append(tid)
    return matched


def _execute_delete(
    database: Database,
    stmt: ast.Delete,
    provider,
    log: DeltaLog | None,
    config: ExecutionConfig,
) -> StatementResult:
    table = stmt.table.lower()
    binding = (stmt.alias or stmt.table).lower()
    tids = _matching_tids(database, table, binding, stmt.where, provider, config)
    for tid in tids:
        old = database.delete_row(table, tid)
        if log is not None:
            log.record_delete(table, tid, old)
    return StatementResult(
        kind="delete", affected=len(tids), touched_tables=frozenset({table})
    )


# ----------------------------------------------------------------------
# UPDATE
# ----------------------------------------------------------------------


def _execute_update(
    database: Database,
    stmt: ast.Update,
    provider,
    log: DeltaLog | None,
    config: ExecutionConfig,
) -> StatementResult:
    table = stmt.table.lower()
    binding = (stmt.alias or stmt.table).lower()
    definition = database.schema.table(table)
    columns = definition.column_names
    assignment_indexes = [
        (definition.column_index(assignment.column), assignment.value)
        for assignment in stmt.assignments
    ]

    tids = _matching_tids(database, table, binding, stmt.where, provider, config)

    # Compute all new values against the pre-statement state first.
    planner = config.planner
    evaluator = Evaluator(provider, config=config)
    bind = True
    if planner:
        layout = _target_layout(table, binding, columns)
        compiled = [
            (index, *P.compile_row_predicate(value_expr, layout))
            for index, value_expr in assignment_indexes
        ]
        bind = any(binds for __, __, binds in compiled)
    planned: list[tuple[int, tuple, tuple]] = []
    table_data = database.table(table)
    context, table_context = _target_contexts(table, binding)
    for tid in tids:
        old = table_data.get(tid)
        assert old is not None
        if bind:
            context.bind(binding, columns, old)
            if table_context is not None:
                table_context.bind(table, columns, old)
        new = list(old)
        if planner:
            for index, value, __ in compiled:
                new[index] = value(old, context, evaluator)
        else:
            for index, value_expr in assignment_indexes:
                new[index] = evaluator.evaluate(value_expr, context)
        planned.append((tid, old, tuple(new)))

    for tid, old, new in planned:
        database.update_row(table, tid, new)
        if log is not None:
            log.record_update(table, tid, old, new)

    return StatementResult(
        kind="update", affected=len(planned), touched_tables=frozenset({table})
    )
