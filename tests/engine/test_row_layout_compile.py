"""Predicates compiled for the row a loop scans read its columns by position.

:func:`repro.engine.plan.compile_row_predicate` takes the
:class:`~repro.engine.plan.RowLayout` of a single-source loop's row: a
column reference :class:`~repro.engine.expressions.RowContext` would
resolve to that row compiles to a tuple index, and the loop binds the
row in a context only when the flag returned beside the closure says a
node still reads it there (a subquery, or ``q.c`` naming the row with
a column it lacks). These tests hold the planned loops that use it — a
SELECT source's pushed filters, the DML target scans (every row, or the
bucket an equality-index probe returns) and UPDATE's SET expressions —
to the tree-walking reference
(``ExecutionConfig(matching="naive", planner=False)``) over seeded
NULL-bearing instances with aliased and unaliased targets; pin the
errors both paths raise; and pin the memo key and the index probes of
aliased targets.
"""

import random

import pytest

from repro.engine import plan
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.expressions import RowContext
from repro.engine.query import DatabaseProvider, execute_select
from repro.errors import EvaluationError
from repro.lang import ast
from repro.lang.parser import parse_statement
from repro.schema.catalog import schema_from_spec
from tests.engine.test_exists_early_exit import (
    PLANNED,
    REFERENCE,
    TABLES,
    _instance,
)
from tests.engine.test_planner_equivalence import _random_predicate
from tests.seeding import derive_seed


def _reference_names(rng, text, names):
    """*text*, whose references to a row are qualified by ``names[0]``,
    with each such reference made bare or qualified by one of *names*:
    every form RowContext resolves to that row. (No table's columns
    share a name, so a bare column has one owner.)"""
    forms = ["", *(f"{name}." for name in names)]
    parts = text.split(f"{names[0]}.")
    return parts[0] + "".join(rng.choice(forms) + part for part in parts[1:])


def _where(rng, table, names, outer=None):
    """Two random conjuncts over *table*'s row, which answers to
    *names*, and optionally over the columns of the binding *outer*
    (bound to :data:`PARTNER`'s table)."""
    scope = {names[0]: TABLES[table]}
    if outer is not None:
        scope[outer] = TABLES[PARTNER[table]]
    return " and ".join(
        _reference_names(rng, _random_predicate(rng, scope), names)
        for __ in range(2)
    )


#: the table an outer reference of a generated predicate reads
PARTNER = {"r": "s", "s": "t", "t": "r"}


def _target_names(table, alias):
    """The names a DML target row answers to: its alias, then its table."""
    return (table,) if alias == table else (alias, table)


def _assert_select_matches(provider, text):
    select = parse_statement(text)
    reference = execute_select(provider, select, config=REFERENCE)
    planned = execute_select(provider, select, config=PLANNED)
    assert planned.columns == reference.columns, text
    assert planned.rows == reference.rows, text


class TestSelectSweep:
    @pytest.mark.parametrize("seed", range(10))
    def test_pushed_filters(self, seed):
        rng = random.Random(derive_seed("layout-select", seed))
        provider = DatabaseProvider(_instance("layout-select-instance", seed))
        for table in TABLES:
            alias = rng.choice([table, "x"])
            source = table if alias == table else f"{table} x"
            _assert_select_matches(
                provider,
                f"select * from {source} where {_where(rng, table, (alias,))}",
            )
            # a pushed filter of a correlated subquery reads outer
            # columns: qualified, and bare ones the row does not have
            outer = PARTNER[table]
            inner = _where(rng, table, (alias,), outer="o")
            inner = _reference_names(rng, inner, ("o",))
            _assert_select_matches(
                provider,
                f"select * from {outer} o where exists "
                f"(select * from {source} where {inner})",
            )

    def test_filter_reads_an_outer_column_outward(self):
        # ``a`` is r's column only: inside the subquery over s (c, d) it
        # must resolve to the outer row, never to a position of s's row.
        database = Database(schema_from_spec(TABLES))
        database.load("r", [(1, 0), (3, 0), (None, 0)])
        database.load("s", [(2, 0), (5, 0)])
        provider = DatabaseProvider(database)
        text = "select r.a from r where exists (select * from s where c < a)"
        for config in (PLANNED, REFERENCE):
            result = execute_select(
                provider, parse_statement(text), config=config
            )
            assert result.rows == ((3,),), config


def _dml_statements(rng, table):
    """UPDATEs and DELETEs over *table*, aliased and not, whose WHERE
    and SET read the target row through every name it answers to."""
    key, other = TABLES[table]
    statements = []
    for alias in (table, "x"):
        target = table if alias == table else f"{table} x"
        names = _target_names(table, alias)
        where = _where(rng, table, names)

        def ref(column):
            return _reference_names(rng, f"{alias}.{column}", names)

        statements += [
            f"update {target} set {other} = {ref(key)} + {ref(other)} "
            f"where {where}",
            f"update {target} set {other} = {rng.randrange(6)}, "
            f"{key} = {ref(other)}",
            f"delete from {target} where {where}",
            # a key conjunct, so the target probes its index: first,
            # and last
            f"update {target} set {other} = 9 where "
            f"{ref(key)} = {rng.randrange(6)} and {where}",
            f"delete from {target} where {where} and "
            f"{ref(key)} = {rng.randrange(6)}",
        ]
    return statements


def _assert_dml_matches(seed_label, seed, text):
    stmt = parse_statement(text)
    reference = _instance(seed_label, seed)
    affected = execute_statement(reference, stmt, config=REFERENCE).affected
    database = _instance(seed_label, seed)
    result = execute_statement(database, stmt, config=PLANNED)
    assert result.affected == affected, text
    assert database.canonical() == reference.canonical(), text


class TestDmlSweep:
    @pytest.mark.parametrize("seed", range(10))
    def test_where_and_set(self, seed):
        rng = random.Random(derive_seed("layout-dml", seed))
        for table in TABLES:
            for text in _dml_statements(rng, table):
                _assert_dml_matches("layout-dml-instance", seed, text)

    @pytest.mark.parametrize("seed", range(6))
    def test_correlated_subqueries_see_the_target_row(self, seed):
        rng = random.Random(derive_seed("layout-dml-bind", seed))
        for alias in ("r", "x"):
            target = "r" if alias == "r" else "r x"
            for correlation in (f"s.c = {alias}.a", "s.d = b", "s.c = r.b"):
                subquery = (
                    f"exists (select * from s where {correlation} and "
                    f"{_random_predicate(rng, {'s': TABLES['s']})})"
                )
                for text in (
                    f"update {target} set b = 0 where {subquery}",
                    f"delete from {target} where a is not null and "
                    f"{subquery}",
                    f"update {target} set b = (select max(s.d) from s "
                    f"where {correlation})",
                    f"update {target} set b = 1 where "
                    f"a = {rng.randrange(6)} and {subquery}",
                ):
                    _assert_dml_matches(
                        "layout-dml-bind-instance", seed, text
                    )


def _table_t(rows):
    """``t(a, b)`` holding *rows*."""
    database = Database(schema_from_spec({"t": ["a", "b"]}))
    database.load("t", rows)
    return database


class TestErrorParity:
    """Both paths raise the same error, with the same message."""

    CASES = [
        (
            "update t x set b = 1 where x.z = 1",
            "table 'x' has no column 'z'",
        ),
        ("update t set b = 1 where z = 1", "unknown column 'z'"),
        ("delete from t where q.a = 1", "unknown table or alias 'q'"),
        ("update t x set b = x.z", "table 'x' has no column 'z'"),
        ("update t set b = z + 1 where a = 1", "unknown column 'z'"),
    ]

    @staticmethod
    def _database():
        return _table_t([(i % 4, i) for i in range(12)])

    @pytest.mark.parametrize("text, message", CASES)
    def test_same_error_on_both_paths(self, text, message):
        stmt = parse_statement(text)
        for config in (REFERENCE, PLANNED):
            with pytest.raises(EvaluationError) as raised:
                execute_statement(self._database(), stmt, config=config)
            assert str(raised.value) == message, config

    def test_ill_typed_comparison_on_a_flat_table(self):
        stmt = parse_statement("update t set b = 1 where a = 'x'")
        message = "cannot compare int with str using '='"
        for config in (REFERENCE, PLANNED):
            with pytest.raises(EvaluationError) as raised:
                execute_statement(self._database(), stmt, config=config)
            assert str(raised.value) == message, config


class TestCompileCache:
    def test_one_ast_over_two_layouts_compiles_twice(self):
        expr = parse_statement("select * from t where a - b > 0").where
        first = plan.RowLayout(("t",), ("a", "b"))
        second = plan.RowLayout(("t",), ("b", "a"))
        by_first, __ = plan.compile_row_predicate(expr, first)
        by_second, __ = plan.compile_row_predicate(expr, second)
        assert by_first is not by_second
        assert plan.compile_row_predicate(expr, first)[0] is by_first
        # the row (5, 2) is a=5, b=2 under the first layout and
        # a=2, b=5 under the second
        assert by_first((5, 2), None, None) is True
        assert by_second((5, 2), None, None) is False

    def test_the_layout_is_part_of_the_key(self):
        expr = parse_statement("select * from t where a > 1").where
        layout = plan.RowLayout(("t",), ("a",))
        by_position, __ = plan.compile_row_predicate(expr, layout)
        by_context = plan.compile_predicate(expr)
        assert by_position is not by_context
        assert by_position((2,), None, None) is True
        context = RowContext()
        context.bind("t", ("a",), (0,))
        assert by_context(None, context, None) is False

    def test_literal_twins_stay_apart_under_one_layout(self):
        layout = plan.RowLayout(("t",), ("a",))
        one = ast.BinaryOp("+", ast.ColumnRef(None, "a"), ast.Literal(1))
        true = ast.BinaryOp("+", ast.ColumnRef(None, "a"), ast.Literal(True))
        assert one != true  # literals compare by type: 1 is not True
        by_one, __ = plan.compile_row_predicate(one, layout)
        by_true, __ = plan.compile_row_predicate(true, layout)
        assert by_one((1,), None, None) == 2
        with pytest.raises(EvaluationError):
            by_true((1,), None, None)

    @pytest.mark.parametrize(
        "where, binds",
        [
            ("a = 1 and t.b > 2", False),
            ("x.a = 1", False),
            ("z = 1", False),  # resolves past the row's level
            ("q.a = 1", False),  # likewise
            ("t.z = 1", True),  # the lookup must find t to raise
            ("x.z = 1", True),
            ("a in (select c from s)", True),
            ("exists (select * from s where c = a)", True),
            ("a = 1 or (select max(c) from s) > b", True),
        ],
    )
    def test_binds_row(self, where, binds):
        expr = parse_statement(f"select * from t where {where}").where
        layout = plan.RowLayout(("x", "t"), ("a", "b"))
        assert plan.compile_row_predicate(expr, layout)[1] is binds


class TestIdentityFront:
    """The memos answer a repeated node by identity first; equal but
    distinct nodes still go through the keyed memo."""

    def test_literal_twins_in_distinct_asts_compile_apart(self):
        plan.clear_caches()
        for first, second in ((1, True), (True, 1)):
            one = parse_statement(f"select * from t where a = {first}").where
            other = parse_statement(f"select * from t where a = {second}").where
            assert one != other  # literals compare by type
            by_one = plan.compile_predicate(one)
            by_other = plan.compile_predicate(other)
            assert by_one is not by_other
            context = RowContext()
            context.bind("t", ("a",), (first,))
            assert by_one(None, context, None) is True
            with pytest.raises(EvaluationError):
                by_other(None, context, None)

    def test_an_equal_distinct_ast_hits_the_keyed_memo(self):
        plan.clear_caches()
        text = "select * from t where a + 1 > b"
        layout = plan.RowLayout(("t",), ("a", "b"))
        first = parse_statement(text)
        second = parse_statement(text)
        assert first.where is not second.where
        compiled = plan.compile_row_predicate(first.where, layout)
        built = plan.plan_select(first, (("t", ("a", "b")),))
        before = plan.STATS.snapshot()
        assert plan.compile_row_predicate(second.where, layout) is compiled
        assert plan.plan_select(second, (("t", ("a", "b")),)) is built
        # and once more by identity
        assert plan.compile_row_predicate(second.where, layout) is compiled
        assert plan.plan_select(second, (("t", ("a", "b")),)) is built
        delta = plan.STATS.delta_since(before)
        assert delta["predicate_cache_hits"] == 2
        assert delta["plan_cache_hits"] == 2
        assert delta["predicates_compiled"] == delta["plans_built"] == 0

    def test_clear_caches_empties_the_identity_front(self):
        select = parse_statement("select * from t where a = 2")
        compiled = plan.compile_predicate(select.where)
        built = plan.plan_select(select, (("t", ("a",)),))
        plan.clear_caches()
        before = plan.STATS.snapshot()
        assert plan.compile_predicate(select.where) is not compiled
        assert plan.plan_select(select, (("t", ("a",)),)) is not built
        delta = plan.STATS.delta_since(before)
        assert delta["predicate_cache_hits"] == delta["plan_cache_hits"] == 0


def _probe(database, stmt, config):
    """Run *stmt* on *database*; returns (affected or the error's
    message, the final canonical database, index probes taken)."""
    before = plan.STATS.snapshot()
    try:
        affected = execute_statement(database, stmt, config=config).affected
    except EvaluationError as error:
        affected = str(error)
    probes = plan.STATS.delta_since(before)["index_probes"]
    return affected, database.canonical(), probes


class TestTargetPruning:
    """A target probes its equality index on every name of its key
    column, and lands where the reference's full scan lands."""

    @staticmethod
    def _database():
        return _table_t([(i % 4, i % 5) for i in range(60)])

    def _both(self, text):
        """(reference, planned) outcomes of *text* (see :func:`_probe`)."""
        stmt = parse_statement(text)
        return (
            _probe(self._database(), stmt, REFERENCE),
            _probe(self._database(), stmt, PLANNED),
        )

    @pytest.mark.parametrize(
        "text",
        [
            "update t set b = 9 where a = 1",
            "update t set b = 9 where t.a = 1",
            "update t x set b = 9 where a = 1",
            "update t x set b = 9 where x.a = 1",
            "update t x set b = 9 where t.a = 1",
            "delete from t where a = 1",
            "delete from t x where a = 1",
            "delete from t x where x.a = 1",
            "delete from t x where t.a = 1",
        ],
    )
    def test_one_probe_and_the_reference_result(self, text):
        reference, planned = self._both(text)
        assert planned[2] == 1
        assert planned[:2] == reference[:2]
        assert planned[0] == 15

    @pytest.mark.parametrize(
        "text",
        [
            "update t set b = 9 where b = 3 and a = 1",
            "update t x set b = 9 where x.b = 3 and a = 1 and t.b < 4",
            "delete from t x where b = 3 and t.a = 1",
        ],
    )
    def test_conjuncts_before_the_key_still_filter(self, text):
        # The first key conjunct probes and is elided; every other
        # conjunct, before it or after it, still decides each row of
        # the probed bucket.
        reference, planned = self._both(text)
        assert planned[2] == 1
        assert planned[:2] == reference[:2]
        assert planned[0] == 3

    def test_a_row_dependent_key_value_does_not_prune(self):
        # ``t.b`` names the target row under an alias: no probe value.
        reference, planned = self._both("update t x set b = 9 where a = t.b")
        assert planned[2] == 0
        assert planned[:2] == reference[:2]

    @pytest.mark.parametrize(
        "text",
        [
            "update t set b = 9 where a = null",
            "delete from t x where x.a = null and b > 0",
        ],
    )
    def test_a_null_key_value_matches_nothing(self, text):
        reference, planned = self._both(text)
        assert planned[:2] == reference[:2]
        assert planned[0] == 0


class TestIllTypedKeyValues:
    """A key value the column's type cannot compare with does not probe:
    the target scan reads every row and raises what the reference
    raises, and a comparable value of another type still probes."""

    @staticmethod
    def _database():
        return _table_t([(i % 4, i) for i in range(12)])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("update t set b = 1 where a = true", "int with bool"),
            ("update t set b = 1 where a = 'x'", "int with str"),
            ("delete from t where a = true", "int with bool"),
            ("delete from t x where x.a = 'x'", "int with str"),
            ("update t set b = 1 where b > 3 and a = false", "int with bool"),
        ],
    )
    def test_unprobed_scan_raises_the_reference_error(self, text, message):
        stmt = parse_statement(text)
        reference = _probe(self._database(), stmt, REFERENCE)
        planned = _probe(self._database(), stmt, PLANNED)
        assert planned[2] == 0
        assert f"cannot compare {message} using '='" in reference[0]
        assert planned[:2] == reference[:2]

    @pytest.mark.parametrize(
        "text",
        ["update t set b = 0 where a = 1.0", "delete from t where a = 1.0"],
    )
    def test_a_float_key_value_still_prunes(self, text):
        stmt = parse_statement(text)
        reference = _probe(self._database(), stmt, REFERENCE)
        planned = _probe(self._database(), stmt, PLANNED)
        assert planned[2] == 1
        assert planned[:2] == reference[:2]
        assert reference[0] == 3
