"""Planned, indexed, compiled SELECT execution.

:func:`repro.engine.query.execute_select` historically evaluated every
SELECT as a cross product over full table scans with a per-row
tree-walking :class:`~repro.engine.expressions.Evaluator` call. This
module replaces that hot path with a small query-planning layer:

* **conjunct splitting and pushdown** — the WHERE clause is split into
  AND-conjuncts; conjuncts referencing a single FROM binding are pushed
  down to that table's scan, conjuncts referencing no binding gate the
  whole query, and everything else becomes a residual predicate applied
  at the shallowest join level where all its bindings are bound;
* **equi-join detection** — a conjunct of the form ``a.x = b.y`` turns
  the deeper of the two tables into a hash-indexed probe target instead
  of a nested re-scan. Probes look up hash buckets whose rows are kept
  in table (tid) order, so the planned executor enumerates *exactly* the
  same matches in *exactly* the same order as the naive nested loop —
  byte-identical results are a hard requirement, enforced by the
  equivalence harness and the ``bench_query_engine`` gate;
* **equality-with-constant probes** — ``x = <row-independent expr>``
  filters resolve through a persistent per-table hash index
  (:meth:`repro.engine.storage.TableData.equality_index`) instead of a
  scan. Those indexes are memoized on the copy-on-write
  :class:`~repro.engine.storage.TableData` exactly like the canonical
  fragments: they survive :meth:`Database.copy` forks, and inserts,
  deletes and updates maintain them in place;
* **predicate compilation** — expression trees compile once into Python
  closures (cached by the expression's AST, which is a frozen, hashable
  dataclass), eliminating the per-row ``isinstance`` dispatch of the
  tree-walking evaluator. A predicate compiled for the
  :class:`RowLayout` of the row a single-source loop scans reads that
  row's columns by position instead of looking each name up in a
  :class:`RowContext`. Plans are likewise cached by the SELECT's AST
  plus the source column layout, so a rule's condition is planned once
  and reused across every processor step and every ``explore()`` fork.

Three-valued-logic semantics are preserved: a row is kept iff the whole
WHERE predicate evaluates to ``True``, and under Kleene AND that is
equivalent to every conjunct independently evaluating to ``True``; NULL
join keys never match, which hash probing honors by excluding NULL keys
from both build and probe sides.

Known, documented divergence from the naive path: *error* behavior on
ill-typed predicates. The naive executor can short-circuit past (or be
forced into) a subexpression that raises — e.g. a comparison of ``int``
with ``bool`` — on rows the planned executor never evaluates it on (or
vice versa). On well-typed queries, which is everything the language's
schema typing admits without mixing incomparable columns, the two paths
agree exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine import values as V
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.storage import index_key
from repro.errors import ReproError
from repro.lang import ast
from repro.stats import StatsBase

_SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)

#: size caps for the module-level memo tables (cleared wholesale on
#: overflow; entries are small, the caps exist only to bound pathological
#: workloads that generate unbounded distinct ASTs)
_PREDICATE_CACHE_CAP = 8192
_PLAN_CACHE_CAP = 2048


class PlannerStats(StatsBase):
    """Global work counters for the planning/execution layer.

    One process-wide instance (:data:`STATS`) accumulates across every
    planned query; the CLI ``--stats`` surface and the
    ``bench_query_engine`` gate read (and reset) it.
    """

    FIELDS = (
        "plans_built",
        "plan_cache_hits",
        "predicates_compiled",
        "predicate_cache_hits",
        "index_builds",
        "index_maintains",
        "index_probes",
        "transient_index_builds",
        "hash_join_probes",
        "rows_scanned",
        "plan_seconds",
    )
    SECONDS = frozenset({"plan_seconds"})


STATS = PlannerStats()


# ----------------------------------------------------------------------
# Predicate compilation
# ----------------------------------------------------------------------

_PREDICATE_CACHE: dict = {}
#: the identity front of ``_PREDICATE_CACHE``: ``(id(expr), layout)`` ->
#: ``(expr, compiled)``. An entry holds its node, so the id stays its own
#: while the entry lives.
_PREDICATE_BY_ID: dict = {}


@dataclass(frozen=True)
class RowLayout:
    """The row a single-source loop scans, as :class:`RowContext` sees it.

    ``names`` are the names the row is bound under: a SELECT source's
    binding, or a DML target's alias and, one context level further
    out, its bare table name (:func:`repro.engine.dml._target_contexts`).
    ``columns`` is the row's column tuple. Nothing else bound at those
    levels answers a reference the row answers: a pushed filter's bare
    columns have one owner among the FROM bindings, and a DML target's
    levels hold only the target.
    """

    names: tuple[str, ...]
    columns: tuple[str, ...]

    def slot(self, expr: ast.Expression) -> int | None:
        """The position of the row's column *expr* resolves to, or None
        when *expr* is not a column reference the row answers: a bare
        ``c`` among the columns, or ``q.c`` with ``q`` one of the names."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        column = expr.column.lower()
        if column not in self.columns:
            return None
        if expr.table and expr.table.lower() not in self.names:
            return None
        return self.columns.index(column)


def compile_predicate(expr: ast.Expression):
    """Compile *expr* into a closure ``f(row, context, evaluator) -> value``
    whose column references all resolve through *context*; a caller
    with no scanned row passes ``row=None``."""
    return compile_row_predicate(expr, None)[0]


def compile_row_predicate(expr: ast.Expression, layout: RowLayout | None):
    """Compile *expr* for the row *layout* describes.

    Returns ``(f, binds_row)``. ``f(row, context, evaluator) -> value``
    reads a reference :class:`RowContext` would resolve to the scanned
    row from the value tuple *row* by position, and resolves every
    other one through *context*; ``binds_row`` says whether a loop
    calling ``f`` must still bind the row in its context first
    (:func:`_binds_row`; False without a layout).

    The closure is provider-independent — subquery nodes delegate back to
    the passed :class:`Evaluator` (whose ``execute_select`` call is
    itself planned and cached) — so compiled predicates are memoized
    globally, keyed by the (frozen, value-hashable) AST node and the
    layout; literals compare by type (:class:`~repro.lang.ast.Literal`),
    so ``a = 1`` and ``a = true`` are distinct keys. A front memo keyed
    by the node's identity answers a repeated call with the same node (a
    rule's condition, a statement's WHERE) without hashing it.
    """
    front = (id(expr), layout)
    entry = _PREDICATE_BY_ID.get(front)
    if entry is not None:
        STATS.predicate_cache_hits += 1
        return entry[1]
    key = (expr, layout)
    compiled = _PREDICATE_CACHE.get(key)
    if compiled is not None:
        STATS.predicate_cache_hits += 1
    else:
        compiled = (
            _compile(expr, layout),
            layout is not None and _binds_row(expr, layout),
        )
        if len(_PREDICATE_CACHE) >= _PREDICATE_CACHE_CAP:
            _PREDICATE_CACHE.clear()
        _PREDICATE_CACHE[key] = compiled
        STATS.predicates_compiled += 1
    if len(_PREDICATE_BY_ID) >= _PREDICATE_CACHE_CAP:
        _PREDICATE_BY_ID.clear()
    _PREDICATE_BY_ID[front] = (expr, compiled)
    return compiled


def _binds_row(expr: ast.Expression, layout: RowLayout) -> bool:
    """Whether *expr*, compiled for *layout*, reads its row through the
    context, so the caller must bind the row there first.

    That holds for a node :func:`_compile` hands to the evaluator (a
    subquery may correlate with the row) and for ``q.c`` where ``q``
    names the row but ``c`` is not one of its columns: the lookup must
    find the row to raise ``table 'q' has no column 'c'``. Every other
    reference either reads the row by position or resolves past the
    row's level, where binding it changes nothing.
    """
    for node in ast.walk_expression(expr):
        if _deferred(node):
            return True
        if (
            isinstance(node, ast.ColumnRef)
            and node.table
            and node.table.lower() in layout.names
            and layout.slot(node) is None
        ):
            return True
    return False


_UNARY_OPS = frozenset({"not", "-"})
_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%", "||"})
_BINARY_OPS = _COMPARISON_OPS | _ARITHMETIC_OPS | {
    "and",
    "or",
    "like",
    "not like",
}
_COMPILED_NODES = (
    ast.Literal,
    ast.ColumnRef,
    ast.BinaryOp,
    ast.UnaryOp,
    ast.IsNull,
    ast.Between,
    ast.InList,
    ast.FuncCall,
)


def _deferred(node: ast.Expression) -> bool:
    """Whether :func:`_compile` hands *node* whole to the evaluator.

    Subqueries do, and so do an aggregate (invalid outside SELECT
    items, so the evaluator raises the naive path's error), an unknown
    operator and any future node type.
    """
    if isinstance(node, ast.BinaryOp):
        return node.op not in _BINARY_OPS
    if isinstance(node, ast.UnaryOp):
        return node.op not in _UNARY_OPS
    if isinstance(node, ast.FuncCall):
        return node.name in ast.AGGREGATE_FUNCTIONS
    return not isinstance(node, _COMPILED_NODES)


def _compile(expr: ast.Expression, layout: RowLayout | None):
    if _deferred(expr):
        # The evaluator plans a subquery's SELECT when it runs and keeps
        # the rows of a closed one for the rest of the statement.
        return lambda row, context, evaluator: evaluator.evaluate(
            expr, context
        )

    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, context, evaluator: value

    if isinstance(expr, ast.ColumnRef):
        slot = None if layout is None else layout.slot(expr)
        if slot is not None:
            return lambda row, context, evaluator: row[slot]
        column = expr.column
        if expr.table:
            table = expr.table
            return lambda row, context, evaluator: context.lookup_qualified(
                table, column
            )
        return lambda row, context, evaluator: context.lookup_unqualified(
            column
        )

    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, layout)

    if isinstance(expr, ast.UnaryOp):
        operand = _compile(expr.operand, layout)
        if expr.op == "not":
            as_bool = Evaluator._as_bool
            return lambda row, context, evaluator: V.sql_not(
                as_bool(operand(row, context, evaluator))
            )
        return _compile_negate(operand)

    if isinstance(expr, ast.IsNull):
        operand = _compile(expr.operand, layout)
        if expr.negated:
            return lambda row, context, evaluator: (
                operand(row, context, evaluator) is not None
            )
        return lambda row, context, evaluator: (
            operand(row, context, evaluator) is None
        )

    if isinstance(expr, ast.Between):
        operand = _compile(expr.operand, layout)
        low = _compile(expr.low, layout)
        high = _compile(expr.high, layout)
        negated = expr.negated

        def between(row, context, evaluator):
            value = operand(row, context, evaluator)
            result = V.sql_and(
                V.sql_compare(">=", value, low(row, context, evaluator)),
                V.sql_compare("<=", value, high(row, context, evaluator)),
            )
            return V.sql_not(result) if negated else result

        return between

    if isinstance(expr, ast.InList):
        operand = _compile(expr.operand, layout)
        items = tuple(_compile(item, layout) for item in expr.items)
        negated = expr.negated
        evaluate_in = Evaluator._evaluate_in
        return lambda row, context, evaluator: evaluate_in(
            operand(row, context, evaluator),
            [item(row, context, evaluator) for item in items],
            negated,
        )

    # A scalar function call (aggregates were deferred above).
    name = expr.name
    args = tuple(_compile(arg, layout) for arg in expr.args)
    return lambda row, context, evaluator: V.sql_scalar_function(
        name, [arg(row, context, evaluator) for arg in args]
    )


def _compile_binary(expr: ast.BinaryOp, layout: RowLayout | None):
    op = expr.op
    left = _compile(expr.left, layout)
    right = _compile(expr.right, layout)
    as_bool = Evaluator._as_bool

    if op == "and":

        def kleene_and(row, context, evaluator):
            left_value = as_bool(left(row, context, evaluator))
            if left_value is False:
                return False
            return V.sql_and(
                left_value, as_bool(right(row, context, evaluator))
            )

        return kleene_and

    if op == "or":

        def kleene_or(row, context, evaluator):
            left_value = as_bool(left(row, context, evaluator))
            if left_value is True:
                return True
            return V.sql_or(
                left_value, as_bool(right(row, context, evaluator))
            )

        return kleene_or

    if op in _COMPARISON_OPS:
        compare = V.sql_compare
        return lambda row, context, evaluator: compare(
            op, left(row, context, evaluator), right(row, context, evaluator)
        )
    if op in _ARITHMETIC_OPS:
        arithmetic = V.sql_arithmetic
        return lambda row, context, evaluator: arithmetic(
            op, left(row, context, evaluator), right(row, context, evaluator)
        )
    if op == "like":
        return lambda row, context, evaluator: V.sql_like(
            left(row, context, evaluator), right(row, context, evaluator)
        )
    # "not like" (an unknown operator was deferred to the evaluator)
    return lambda row, context, evaluator: V.sql_not(
        V.sql_like(
            left(row, context, evaluator), right(row, context, evaluator)
        )
    )


def _compile_negate(operand):
    from repro.errors import EvaluationError

    def negate(row, context, evaluator):
        value = operand(row, context, evaluator)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EvaluationError("unary '-' needs a numeric operand")
        return -value

    return negate


# ----------------------------------------------------------------------
# Logical plans
# ----------------------------------------------------------------------


@dataclass
class SourcePlan:
    """The per-FROM-table slice of a :class:`Plan`.

    ``filters`` are pushed single-table conjuncts (compiled for the
    source's :class:`RowLayout`, original order), and ``filters_bind``
    says whether one of them reads the row through the context
    (:func:`compile_row_predicate`); ``const_probes`` are ``(column_index,
    value_closure)`` pairs from equality-with-constant conjuncts, served
    by a hash index; ``join_cols``/``join_values`` describe the
    hash-join key when this level is the probe target of one or more
    equi-join conjuncts; and ``residuals`` are the remaining conjuncts
    whose deepest binding is this level.
    """

    binding: str
    filters: tuple = ()
    filters_bind: bool = False
    const_probes: tuple = ()
    join_cols: tuple[int, ...] | None = None
    join_values: tuple = ()
    residuals: tuple = ()


@dataclass
class Plan:
    """A lowered SELECT: scan/filter/join/residual structure.

    ``constant_gates`` are conjuncts with no local binding dependency
    (literals or outer-context references), evaluated once per execution
    before any scan; ``items`` are the compiled SELECT item expressions
    for the non-aggregate projection path (``None`` when the query is
    ``*``, grouped, or aggregated). ``row_per_match`` holds when the
    answer has one row per matched context (no GROUP BY and no
    aggregate among the items): only then may a row limit stop the
    enumeration early.
    """

    sources: tuple[SourcePlan, ...]
    constant_gates: tuple = ()
    items: tuple | None = None
    row_per_match: bool = True


@dataclass(frozen=True)
class ConstProbe:
    """A classified ``col = <row-independent expr>`` conjunct."""

    conjunct: ast.Expression
    column: int
    value: ast.Expression


@dataclass(frozen=True)
class JoinConjunct:
    """A classified equi-join conjunct probing one source.

    ``probe_column`` indexes the deeper (probe-target) source's columns;
    ``build`` is the shallower side's key expression.
    """

    conjunct: ast.Expression
    probe_column: int
    build: ast.Expression


@dataclass(frozen=True)
class Residual:
    """A conjunct applied at its deepest binding level.

    ``ambiguous`` marks conjuncts that defied static classification
    (a subquery, an ambiguous unqualified column, a qualified reference
    to a missing column) and were defaulted to the last source — the
    rete compiler refuses those; the planned executor evaluates them at
    full binding depth, reproducing the naive path's behavior.
    """

    conjunct: ast.Expression
    ambiguous: bool = False


@dataclass(frozen=True)
class SourceConjuncts:
    """The classified WHERE conjuncts charged to one FROM source."""

    binding: str
    filters: tuple[ast.Expression, ...] = ()
    const_probes: tuple[ConstProbe, ...] = ()
    joins: tuple[JoinConjunct, ...] = ()
    residuals: tuple[Residual, ...] = ()


@dataclass(frozen=True)
class SelectClassification:
    """A SELECT's WHERE clause, classified per source (AST level).

    This is the shared front half of planning: both :func:`_build_plan`
    (which compiles it into closures) and the rete network compiler
    (:mod:`repro.engine.rete`, which lowers it into alpha/beta nodes)
    consume it, so the two executors agree by construction on pushdown,
    equi-join detection, and residual placement.
    """

    sources: tuple[SourceConjuncts, ...]
    constant_gates: tuple[ast.Expression, ...] = ()

    @property
    def has_ambiguous(self) -> bool:
        return any(
            residual.ambiguous
            for source in self.sources
            for residual in source.residuals
        )


class _Ambiguous(Exception):
    """Internal marker: a conjunct cannot be classified statically."""


def _has_subquery(expr: ast.Expression) -> bool:
    return any(
        isinstance(node, _SUBQUERY_NODES) for node in ast.walk_expression(expr)
    )


def _conjunct_deps(
    expr: ast.Expression, binding_columns: dict[str, tuple[str, ...]]
) -> frozenset[str]:
    """The FROM bindings *expr* depends on.

    Raises :class:`_Ambiguous` when static classification is unsafe: the
    conjunct contains a subquery (which may correlate against anything),
    an unqualified column owned by several bindings, or a qualified
    reference to a binding column that does not exist (so the naive
    path's error must be reproduced at full binding depth).
    """
    if _has_subquery(expr):
        raise _Ambiguous
    deps: set[str] = set()
    for node in ast.walk_expression(expr):
        if not isinstance(node, ast.ColumnRef):
            continue
        if node.table:
            table = node.table.lower()
            if table in binding_columns:
                if node.column.lower() not in binding_columns[table]:
                    raise _Ambiguous
                deps.add(table)
            # else: outer-context reference, no local dependency
        else:
            column = node.column.lower()
            owners = [
                binding
                for binding, columns in binding_columns.items()
                if column in columns
            ]
            if len(owners) > 1:
                raise _Ambiguous
            if owners:
                deps.add(owners[0])
            # else: outer-context reference
    return frozenset(deps)


def _ref_binding(
    ref: ast.Expression, binding_columns: dict[str, tuple[str, ...]]
) -> tuple[str, int] | None:
    """Resolve a ColumnRef to ``(binding, column_index)``, or None."""
    if not isinstance(ref, ast.ColumnRef):
        return None
    column = ref.column.lower()
    if ref.table:
        binding = ref.table.lower()
        columns = binding_columns.get(binding)
        if columns is None or column not in columns:
            return None
        return binding, columns.index(column)
    owners = [
        (binding, columns.index(column))
        for binding, columns in binding_columns.items()
        if column in columns
    ]
    if len(owners) == 1:
        return owners[0]
    return None


def is_closed_subquery(select: ast.Select, provider) -> bool:
    """Whether no column reference in *select* can resolve to an outer row.

    Follows :class:`RowContext` lookup over the subquery's own scope
    chain, nested subqueries included: a qualified ``t.c`` is local when
    ``t`` is a FROM binding of *select* or of a nested subquery that
    encloses the reference; a bare ``c`` is local when a binding in that
    chain has a column ``c``. Columns come from ``provider.resolve``, so
    transition-table overlays count. A closed subquery returns the same
    rows for every outer row, so an
    :class:`~repro.engine.expressions.Evaluator` runs it once.
    """
    return _closed_in(select, provider, ())


def _closed_in(
    select: ast.Select,
    provider,
    scopes: tuple[dict[str, tuple[str, ...]], ...],
) -> bool:
    try:
        bindings = {
            ref.binding_name.lower(): provider.resolve(ref.name)[0]
            for ref in select.tables
        }
    except ReproError:
        # A table the provider cannot resolve leaves the subquery open:
        # it then runs per row and raises exactly as it always did.
        return False
    scopes = (*scopes, bindings)
    for expr in ast.expressions_of_statement(select):
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.ColumnRef):
                if not _resolves_within(node, scopes):
                    return False
            elif isinstance(node, _SUBQUERY_NODES):
                if not _closed_in(node.subquery, provider, scopes):
                    return False
    return True


def _resolves_within(
    ref: ast.ColumnRef, scopes: tuple[dict[str, tuple[str, ...]], ...]
) -> bool:
    """Whether *ref* binds (or fails to bind) inside *scopes*."""
    if ref.table:
        table = ref.table.lower()
        return any(table in bindings for bindings in scopes)
    column = ref.column.lower()
    return any(
        column in columns
        for bindings in scopes
        for columns in bindings.values()
    )


_PLAN_CACHE: dict = {}
#: the identity front of ``_PLAN_CACHE``: ``(id(select), source_columns)``
#: -> ``(select, plan)``, holding the node like ``_PREDICATE_BY_ID``
_PLAN_BY_ID: dict = {}
_CLASSIFY_CACHE: dict = {}


def classify_select(
    select: ast.Select,
    source_columns: tuple[tuple[str, tuple[str, ...]], ...],
) -> SelectClassification:
    """The (cached) per-source conjunct classification for *select*.

    Pure AST analysis — nothing is compiled. Keyed like the plan cache
    (AST + column layouts).
    """
    key = (select, source_columns)
    classified = _CLASSIFY_CACHE.get(key)
    if classified is not None:
        return classified

    binding_columns = {binding: columns for binding, columns in source_columns}
    order = {binding: i for i, (binding, __) in enumerate(source_columns)}
    last = len(source_columns) - 1

    filters: list[list] = [[] for __ in source_columns]
    const_probes: list[list] = [[] for __ in source_columns]
    joins: list[list] = [[] for __ in source_columns]
    residuals: list[list] = [[] for __ in source_columns]
    constant_gates: list = []

    conjuncts = ast.conjuncts(select.where) if select.where is not None else ()
    for conjunct in conjuncts:
        try:
            deps = _conjunct_deps(conjunct, binding_columns)
        except _Ambiguous:
            residuals[last].append(Residual(conjunct, ambiguous=True))
            continue

        if not deps:
            constant_gates.append(conjunct)
            continue

        if len(deps) == 1:
            binding = next(iter(deps))
            probe = _as_const_probe(
                conjunct,
                RowLayout((binding,), binding_columns[binding]),
                binding_columns,
            )
            if probe is not None:
                const_probes[order[binding]].append(probe)
            else:
                filters[order[binding]].append(conjunct)
            continue

        deepest = max(order[binding] for binding in deps)
        join = _as_equi_join(conjunct, binding_columns, order, deepest)
        if join is not None:
            joins[deepest].append(join)
        else:
            residuals[deepest].append(Residual(conjunct))

    classified = SelectClassification(
        sources=tuple(
            SourceConjuncts(
                binding=binding,
                filters=tuple(filters[i]),
                const_probes=tuple(const_probes[i]),
                joins=tuple(joins[i]),
                residuals=tuple(residuals[i]),
            )
            for i, (binding, __) in enumerate(source_columns)
        ),
        constant_gates=tuple(constant_gates),
    )
    if len(_CLASSIFY_CACHE) >= _PLAN_CACHE_CAP:
        _CLASSIFY_CACHE.clear()
    _CLASSIFY_CACHE[key] = classified
    return classified


def plan_select(
    select: ast.Select,
    source_columns: tuple[tuple[str, tuple[str, ...]], ...],
) -> Plan:
    """The (cached) plan for *select* over sources with these columns.

    The cache key includes the per-binding column layouts because the
    same AST can resolve against different providers — two rules'
    ``select * from inserted`` conditions share an AST shape but carry
    their own table's columns. Like :func:`compile_row_predicate`, an
    identity front answers a repeated call with the same node first.
    """
    front = (id(select), source_columns)
    entry = _PLAN_BY_ID.get(front)
    if entry is not None:
        STATS.plan_cache_hits += 1
        return entry[1]
    key = (select, source_columns)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        STATS.plan_cache_hits += 1
    else:
        started = time.perf_counter()
        plan = _build_plan(select, source_columns)
        if len(_PLAN_CACHE) >= _PLAN_CACHE_CAP:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = plan
        STATS.plans_built += 1
        STATS.plan_seconds += time.perf_counter() - started
    if len(_PLAN_BY_ID) >= _PLAN_CACHE_CAP:
        _PLAN_BY_ID.clear()
    _PLAN_BY_ID[front] = (select, plan)
    return plan


def _build_plan(
    select: ast.Select,
    source_columns: tuple[tuple[str, tuple[str, ...]], ...],
) -> Plan:
    classified = classify_select(select, source_columns)

    sources = []
    for source, (__, columns) in zip(classified.sources, source_columns):
        layout = RowLayout((source.binding,), columns)
        filters = [
            compile_row_predicate(conjunct, layout)
            for conjunct in source.filters
        ]
        sources.append(
            SourcePlan(
                binding=source.binding,
                filters=tuple(predicate for predicate, __ in filters),
                filters_bind=any(binds for __, binds in filters),
                const_probes=tuple(
                    (probe.column, compile_predicate(probe.value))
                    for probe in source.const_probes
                ),
                join_cols=(
                    tuple(join.probe_column for join in source.joins)
                    if source.joins
                    else None
                ),
                join_values=tuple(
                    compile_predicate(join.build) for join in source.joins
                ),
                residuals=tuple(
                    compile_predicate(residual.conjunct)
                    for residual in source.residuals
                ),
            )
        )

    constant_gates = tuple(
        compile_predicate(gate) for gate in classified.constant_gates
    )

    row_per_match = not select.group_by and not any(
        ast.contains_aggregate(item.expr) for item in select.items
    )
    items = None
    if select.items and row_per_match:
        items = tuple(compile_predicate(item.expr) for item in select.items)

    return Plan(
        sources=tuple(sources),
        constant_gates=constant_gates,
        items=items,
        row_per_match=row_per_match,
    )


def _as_const_probe(
    conjunct, layout: RowLayout, binding_columns
) -> ConstProbe | None:
    """``col = <row-independent expr>`` → a :class:`ConstProbe`.

    ``col`` is a column of the row *layout* describes; the other side
    must depend on no binding in *binding_columns*.
    """
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    for ref_side, value_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        column = layout.slot(ref_side)
        if column is None:
            continue
        try:
            value_deps = _conjunct_deps(value_side, binding_columns)
        except _Ambiguous:
            continue
        if value_deps:
            continue
        return ConstProbe(conjunct, column, value_side)
    return None


def _as_equi_join(
    conjunct, binding_columns, order, deepest
) -> JoinConjunct | None:
    """``a.x = b.y`` → a :class:`JoinConjunct` for the *deepest* binding
    (the probe target); ``build`` is the shallower binding's key
    expression."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    left = _ref_binding(conjunct.left, binding_columns)
    right = _ref_binding(conjunct.right, binding_columns)
    if left is None or right is None or left[0] == right[0]:
        return None
    if order[left[0]] == deepest:
        local, remote_expr = left, conjunct.right
    elif order[right[0]] == deepest:
        local, remote_expr = right, conjunct.left
    else:
        return None
    return JoinConjunct(conjunct, local[1], remote_expr)


# ----------------------------------------------------------------------
# Plan execution
# ----------------------------------------------------------------------


def build_equality_index(rows, cols: tuple[int, ...]) -> dict:
    """Hash *rows* (value tuples) by the values at *cols*.

    Keys are :func:`~repro.engine.values.sort_key`-wrapped so that
    cross-type numeric equality (``1 = 1.0``) matches exactly the rows
    ``sql_compare`` would accept. Rows with a NULL in any key column are
    excluded — NULL never compares equal. Buckets preserve input (tid)
    order, which is what keeps planned results byte-identical to the
    naive nested loop.
    """
    index: dict = {}
    for row in rows:
        key = index_key(row, cols)
        if key is not None:
            index.setdefault(key, []).append(row)
    return index


def _probe_key(values) -> tuple | None:
    """The index key for probe *values*, or None when any value is NULL."""
    key = []
    for value in values:
        if value is None:
            return None
        key.append(V.sort_key(value))
    return tuple(key)


def _persistent_index(provider, table_name: str, cols: tuple[int, ...]):
    """The provider's index on *cols* (a base table's persistent index,
    an overlay's cached one), or None when the provider has none."""
    getter = getattr(provider, "equality_index", None)
    if getter is None:
        return None
    return getter(table_name, cols)


class _LimitReached(Exception):
    """Internal signal: a limited enumeration has matched enough."""


def _filtered(rows, binding, columns, source_plan, context, evaluator):
    """Yield the *rows* that pass every pushed filter, one at a time.

    The filters read the row by position; the row is bound in *context*
    only when one of them reads it there (``filters_bind``). Each row
    counts in ``rows_scanned`` when it is examined, so a limited run
    reports the rows it filtered before it stopped.
    """
    truthy = V.sql_is_truthy
    filters = source_plan.filters
    bind = source_plan.filters_bind
    for row in rows:
        STATS.rows_scanned += 1
        if bind:
            context.bind(binding, columns, row)
        for predicate in filters:
            if not truthy(predicate(row, context, evaluator)):
                break
        else:
            yield row


def execute_planned(
    provider,
    select: ast.Select,
    sources: list[tuple[str, tuple[str, ...], list[tuple]]],
    outer_context: RowContext | None,
    evaluator: Evaluator,
    limit: int | None = None,
) -> tuple[list[RowContext], list[list[tuple]], Plan]:
    """Run *select*'s plan; returns (matched contexts, raw rows, plan).

    The matched contexts and per-source raw rows are exactly what the
    naive cross-product filter produces, in the same order.

    A *limit* stops the enumeration once that many contexts matched,
    so the result is the first *limit* of the full answer. It applies
    only when the plan's answer has one row per matched context
    (:attr:`Plan.row_per_match`); a grouped or aggregate SELECT runs in
    full. The outermost source applies its pushed filters as the
    enumeration asks for its rows, so a limited run stops filtering
    where it stops matching; deeper sources filter up front, because
    their pool is read once per outer row and their join index is
    built from the filtered pool.
    """
    source_columns = tuple((binding, columns) for binding, columns, __ in sources)
    plan = plan_select(select, source_columns)
    table_names = tuple(ref.name.lower() for ref in select.tables)
    if not plan.row_per_match:
        limit = None

    matched: list[RowContext] = []
    matched_rows: list[list[tuple]] = []

    base = RowContext(outer=outer_context)
    for gate in plan.constant_gates:
        if not V.sql_is_truthy(gate(None, base, evaluator)):
            return matched, matched_rows, plan

    n = len(sources)
    pools: list = [None] * n
    join_indexes: list = [None] * n

    filter_context = RowContext(outer=outer_context)
    for i, source_plan in enumerate(plan.sources):
        binding, columns, rows = sources[i]

        if source_plan.const_probes:
            probe_values = [
                value(None, base, evaluator)
                for __, value in source_plan.const_probes
            ]
            key = _probe_key(probe_values)
            if key is None:
                rows = []
            else:
                cols = tuple(col for col, __ in source_plan.const_probes)
                index = _persistent_index(provider, table_names[i], cols)
                if index is None:
                    index = build_equality_index(rows, cols)
                    STATS.transient_index_builds += 1
                rows = index.get(key, [])
                STATS.index_probes += 1

        if source_plan.filters:
            rows = _filtered(
                rows, binding, columns, source_plan, filter_context, evaluator
            )
            if i > 0:
                rows = list(rows)

        if source_plan.join_cols is not None:
            if not source_plan.filters and not source_plan.const_probes:
                index = _persistent_index(
                    provider, table_names[i], source_plan.join_cols
                )
                if index is None:
                    index = build_equality_index(rows, source_plan.join_cols)
                    STATS.transient_index_builds += 1
            else:
                index = build_equality_index(rows, source_plan.join_cols)
                STATS.transient_index_builds += 1
            join_indexes[i] = index
        else:
            pools[i] = rows

    # Left-deep nested enumeration in FROM order. Probe levels pull their
    # candidates from a hash bucket (a tid-ordered subsequence of the
    # scan), so the emitted order matches the naive cross product.
    truthy = V.sql_is_truthy
    context = RowContext(outer=outer_context)
    raw: list = []

    def enumerate_level(level: int) -> None:
        if level == n:
            snapshot = RowContext(outer=outer_context)
            captured = list(raw)
            for (name, columns, __), row in zip(sources, captured):
                snapshot.bind(name, columns, row)
            matched.append(snapshot)
            matched_rows.append(captured)
            if len(matched) == limit:
                raise _LimitReached
            return
        source_plan = plan.sources[level]
        binding, columns, __ = sources[level]
        if source_plan.join_cols is not None:
            key = _probe_key(
                [
                    value(None, context, evaluator)
                    for value in source_plan.join_values
                ]
            )
            candidates = () if key is None else join_indexes[level].get(key, ())
            STATS.hash_join_probes += 1
        else:
            candidates = pools[level]
        residuals = source_plan.residuals
        for row in candidates:
            context.bind(binding, columns, row)
            raw.append(row)
            for predicate in residuals:
                if not truthy(predicate(None, context, evaluator)):
                    break
            else:
                enumerate_level(level + 1)
            raw.pop()

    try:
        enumerate_level(0)
    except _LimitReached:
        pass
    return matched, matched_rows, plan


def clear_caches() -> None:
    """Drop the plan and predicate memo tables (tests and benchmarks)."""
    _PLAN_CACHE.clear()
    _PLAN_BY_ID.clear()
    _PREDICATE_CACHE.clear()
    _PREDICATE_BY_ID.clear()
    _CLASSIFY_CACHE.clear()
