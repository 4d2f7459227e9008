"""Pretty-printer tests, including hypothesis round-trip properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast
from repro.lang.parser import parse_expression, parse_rule, parse_statement
from repro.lang.pretty import format_expression, format_rule, format_statement


class TestStatementFormatting:
    def test_select_star(self):
        assert format_statement(parse_statement("select * from emp")) == (
            "select * from emp"
        )

    def test_select_with_everything(self):
        source = "select distinct e.id as key from emp e where e.salary > 10"
        assert format_statement(parse_statement(source)) == source

    def test_insert_values(self):
        source = "insert into t values (1, 'a'), (2, 'b')"
        assert format_statement(parse_statement(source)) == source

    def test_insert_select(self):
        source = "insert into t (select id, v from inserted)"
        assert format_statement(parse_statement(source)) == source

    def test_delete(self):
        source = "delete from t where v = 3"
        assert format_statement(parse_statement(source)) == source

    def test_update(self):
        source = "update t set v = v + 1, id = 0 where v < 5"
        assert format_statement(parse_statement(source)) == source

    def test_rollback(self):
        assert format_statement(parse_statement("rollback")) == "rollback"
        assert format_statement(parse_statement("rollback 'msg'")) == (
            "rollback 'msg'"
        )

    def test_string_quote_escaping(self):
        stmt = parse_statement("insert into t values ('it''s')")
        assert format_statement(stmt) == "insert into t values ('it''s')"


class TestExpressionFormatting:
    def test_preserves_left_associativity(self):
        expr = parse_expression("10 - 4 - 3")
        assert parse_expression(format_expression(expr)) == expr

    def test_parenthesizes_or_under_and(self):
        expr = parse_expression("(a = 1 or b = 2) and c = 3")
        text = format_expression(expr)
        assert parse_expression(text) == expr
        assert "(" in text

    def test_not_rendering(self):
        expr = parse_expression("not a = 1")
        assert parse_expression(format_expression(expr)) == expr

    def test_float_renders_without_exponent(self):
        for value, text in ((0.00001, "0.00001"), (1e22, "10000000000000000000000.0")):
            assert format_expression(ast.Literal(value)) == text
            assert parse_expression(text) == ast.Literal(value)

    def test_null_true_false(self):
        for source in ("null", "true", "false"):
            assert format_expression(parse_expression(source)) == source

    def test_exists_round_trip(self):
        expr = parse_expression("exists (select * from t where v > 1)")
        assert parse_expression(format_expression(expr)) == expr

    def test_between_round_trip(self):
        expr = parse_expression("v not between 1 and 2 + 3")
        assert parse_expression(format_expression(expr)) == expr


class TestRuleFormatting:
    def test_round_trip_full_rule(self):
        source = """
        create rule r on emp
        when updated(salary), inserted
        if exists (select * from new_updated where salary > 10)
        then update emp set salary = 10 where salary > 10;
             insert into audit values (1, 2)
        precedes p1
        follows f1, f2
        """
        rule = parse_rule(source)
        assert parse_rule(format_rule(rule)) == rule


# ----------------------------------------------------------------------
# Property-based round trips: parse(format(ast)) == ast for random ASTs.
# ----------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "t", "v", "x1", "col"])

_literals = st.one_of(
    st.integers(min_value=0, max_value=10_000).map(ast.Literal),
    # tiny, huge and integral floats too: the grammar has no exponent
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
        ast.Literal
    ),
    st.just(ast.Literal(None)),
    st.just(ast.Literal(True)),
    st.just(ast.Literal(False)),
    st.text(
        alphabet=st.characters(codec="ascii", exclude_characters="\n"),
        max_size=8,
    ).map(ast.Literal),
)

_column_refs = st.one_of(
    _names.map(lambda name: ast.ColumnRef(None, name)),
    st.tuples(_names, _names).map(lambda pair: ast.ColumnRef(*pair)),
)


def _expressions(depth: int = 3):
    base = st.one_of(_literals, _column_refs)
    if depth == 0:
        return base
    sub = _expressions(depth - 1)
    return st.one_of(
        base,
        st.tuples(
            st.sampled_from(["+", "-", "*", "and", "or", "=", "<", ">="]),
            sub,
            sub,
        ).map(lambda t: ast.BinaryOp(*t)),
        sub.map(lambda e: ast.UnaryOp("not", e)),
        st.tuples(sub, st.booleans()).map(lambda t: ast.IsNull(*t)),
        st.tuples(sub, st.lists(sub, min_size=1, max_size=3), st.booleans()).map(
            lambda t: ast.InList(t[0], tuple(t[1]), t[2])
        ),
        st.tuples(sub, sub, sub, st.booleans()).map(
            lambda t: ast.Between(*t)
        ),
    )


@given(_expressions())
@settings(max_examples=200, deadline=None)
def test_expression_round_trip(expr):
    assert parse_expression(format_expression(expr)) == expr


_statements = st.one_of(
    st.tuples(
        _names,
        st.lists(st.lists(_literals, min_size=1, max_size=3), min_size=1, max_size=2),
    ).map(
        lambda t: ast.Insert(
            t[0], tuple(tuple(row[: len(t[1][0])]) for row in t[1])
        )
    ),
    st.tuples(_names, st.none() | _expressions(1)).map(
        lambda t: ast.Delete(t[0], where=t[1])
    ),
    st.tuples(_names, _names, _expressions(1)).map(
        lambda t: ast.Update(t[0], (ast.Assignment(t[1], t[2]),))
    ),
    st.text(
        alphabet=st.characters(codec="ascii", exclude_characters="\n"),
        max_size=10,
    ).map(ast.Rollback),
)


@given(_statements)
@settings(max_examples=200, deadline=None)
def test_statement_round_trip(stmt):
    assert parse_statement(format_statement(stmt)) == stmt
