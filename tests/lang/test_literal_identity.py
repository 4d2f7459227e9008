"""Literals compare by type, and ``literal_value`` reads what the text denotes.

``Literal(a) == Literal(b)`` holds exactly when ``a`` and ``b`` have the
same type and compare equal, so ``1``, ``True`` and ``1.0`` are three
distinct literals, and equal literals hash alike. The compiled-predicate,
plan and match-network memos key on the AST alone because of it.
:func:`repro.lang.ast.literal_value` reads the constant a rule's text
denotes only where the evaluator computes that constant: it never
negates a bool.
"""

import pytest
from hypothesis import given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from repro.engine.expressions import Evaluator, RowContext
from repro.errors import EvaluationError
from repro.lang import ast
from repro.lang.parser import parse_expression
from tests.seeding import derive_seed

#: small domains, so that ``1``/``True``/``1.0`` and ``0``/``False``/
#: ``-0.0`` twins come up often
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(allow_nan=False),
    st.sampled_from(["", "0", "1", "true"]),
)


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


@hypothesis_seed(derive_seed("literal-identity", "equality"))
@settings(max_examples=400, deadline=None)
@given(VALUES, VALUES)
def test_literals_are_equal_exactly_when_type_and_value_are(a, b):
    first, second = ast.Literal(a), ast.Literal(b)
    assert (first == second) is _same(a, b)
    assert (first != second) is not _same(a, b)
    if first == second:
        assert hash(first) == hash(second)


@hypothesis_seed(derive_seed("literal-identity", "nested"))
@settings(max_examples=200, deadline=None)
@given(VALUES, VALUES)
def test_enclosing_nodes_compare_and_hash_through_their_literals(a, b):
    def where(value):
        return ast.BinaryOp(
            "and",
            ast.BinaryOp("=", ast.ColumnRef(None, "c"), ast.Literal(value)),
            ast.InList(ast.ColumnRef("t", "d"), (ast.Literal(value),)),
        )

    assert (where(a) == where(b)) is _same(a, b)
    if _same(a, b):
        assert hash(where(a)) == hash(where(b))


def test_the_twins_are_three_keys():
    twins = [ast.Literal(1), ast.Literal(True), ast.Literal(1.0)]
    assert len(set(twins)) == 3
    assert len({ast.Literal(0), ast.Literal(False), ast.Literal(0.0)}) == 3
    assert ast.Literal(1) != 1


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", 3),
        ("-3", -3),
        ("-0.5", -0.5),
        ("2.0", 2.0),
        ("'x'", "x"),
        ("null", None),
        ("true", True),
        ("false", False),
    ],
)
def test_literal_value_reads_constants(text, value):
    assert _same(ast.literal_value(parse_expression(text)), value)


@pytest.mark.parametrize(
    "text", ["-true", "-false", "-'x'", "-null", "-(-1)", "c", "-c", "1 + 1"]
)
def test_literal_value_refuses_what_is_not_a_constant(text):
    assert ast.literal_value(parse_expression(text)) is ast.NOT_LITERAL


def test_the_evaluator_refuses_the_negated_bool_too():
    with pytest.raises(EvaluationError, match="numeric operand"):
        Evaluator(None).evaluate(parse_expression("-true"), RowContext())


@hypothesis_seed(derive_seed("literal-identity", "negation"))
@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_a_negation_read_is_what_the_evaluator_computes(value):
    negation = ast.UnaryOp("-", ast.Literal(value))
    read = ast.literal_value(negation)
    if read is ast.NOT_LITERAL:
        assert type(value) not in (int, float)
        return
    assert _same(read, Evaluator(None).evaluate(negation, RowContext()))
