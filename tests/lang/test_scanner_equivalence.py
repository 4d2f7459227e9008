"""The one-pattern scanner and the literal shortcut against their references.

(a) ``tokenize`` against the character-at-a-time scanner it replaced
(``tests/lang/reference_tokens.py``, unchanged) on fuzzed strings built
from the pieces where the two could part: ``new``/``old``/``-updated``
in mixed case, comments, quote escapes, strings left open or broken by
a newline, whitespace that is not a blank, non-ASCII letters and
numerals, digits and dots. Both must give the same tokens or the same
``TokenizeError`` (message, line, column). The one intended difference:
where the reference made a NUMBER holding a non-decimal digit (``²``),
the scanner raises "unexpected character" at that digit.

(b) ``parse_expression`` turns a literal followed by ``,`` or ``)``
straight into its ``ast.Literal``. For random items, the item parsed
inside a VALUES row, an IN list and a call must equal the item parsed
alone, which ends at end of input and so takes the full descent.

Seeds come from ``tests/seeding.py``; rerun with ``--base-seed=N``.
"""

import random

import pytest

from repro.errors import TokenizeError
from repro.lang.parser import parse_expression, parse_statement
from repro.lang.tokens import TokenKind, tokenize
from tests.lang import reference_tokens
from tests.seeding import derive_seed

CASES = 20
STRINGS_PER_CASE = 250
ITEMS_PER_CASE = 60

_PIECES = (
    "--", "-- note", "-", "'", "''", "'a'", "'it''s'", "'open", "'x\n'",
    "\n", "\r", "\t", "\x1c", "\xa0", " ", " ",
    "ß", "é", "½", "٣", "²", "¹",
    "0", "1", "7", "42", ".", "..", "1.5", ".5",
    "x", "_", "t", "select", "from", ",", "(", ")", "=", "<", ">", "<>",
    "!", "|", "||", "*", "+", ";", "@",
)
_CASED = ("new", "old", "-updated", "updated", "new-updated", "old-updated")


def _mixed_case(rng: random.Random, word: str) -> str:
    return "".join(
        char.upper() if rng.random() < 0.3 else char for char in word
    )


def random_source(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.25:
            parts.append(_mixed_case(rng, rng.choice(_CASED)))
        else:
            parts.append(rng.choice(_PIECES))
    return "".join(parts)


def _offset(source: str, line: int, column: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + column - 1


def reference_outcome(source: str):
    """The reference's tokens and error. On an error, the tokens are
    those it made before it: the reference's tokens for the source up
    to the error's position, without the EOF token."""
    try:
        return reference_tokens.tokenize(source), None
    except TokenizeError as error:
        prefix = source[: _offset(source, error.line, error.column)]
        return reference_tokens.tokenize(prefix)[:-1], error


def first_non_decimal_digit(tokens):
    """``(line, column, char)`` of the first non-decimal digit the
    reference put in a NUMBER token, or None."""
    for token in tokens:
        if token.kind is TokenKind.NUMBER:
            for index, char in enumerate(token.text):
                if char != "." and not char.isdecimal():
                    return token.line, token.column + index, char
    return None


def _error(source: str) -> tuple:
    with pytest.raises(TokenizeError) as excinfo:
        tokenize(source)
    return str(excinfo.value), excinfo.value.line, excinfo.value.column


@pytest.mark.parametrize("case", range(CASES))
def test_scanner_matches_reference(case):
    rng = random.Random(derive_seed("scanner-equivalence", case))
    for _ in range(STRINGS_PER_CASE):
        source = random_source(rng)
        tokens, error = reference_outcome(source)
        digit = first_non_decimal_digit(tokens)
        if digit is not None:
            line, column, char = digit
            message = (
                f"unexpected character {char!r} (line {line}, column {column})"
            )
            assert _error(source) == (message, line, column), source
        elif error is None:
            assert tokenize(source) == tokens, source
        else:
            assert _error(source) == (str(error), error.line, error.column), source


# ----------------------------------------------------------------------
# (b) The literal shortcut
# ----------------------------------------------------------------------


def _string_literal(rng: random.Random) -> str:
    text = "".join(rng.choice("ab 'é") for _ in range(rng.randint(0, 5)))
    return "'" + text.replace("'", "''") + "'"


def _number(rng: random.Random) -> str:
    return rng.choice(
        (
            str(rng.randint(0, 10**6)),
            f"{rng.randint(0, 999)}.{rng.randint(0, 999)}",
            f".{rng.randint(0, 99)}",
        )
    )


def _primary(rng: random.Random, depth: int) -> str:
    choice = rng.randrange(7 if depth else 5)
    if choice == 0:
        return _number(rng)
    if choice == 1:
        return _mixed_case(rng, rng.choice(("null", "true", "false")))
    if choice == 2:
        return _string_literal(rng)
    if choice == 3:
        return rng.choice(("x", "t.v"))
    if choice == 4:
        return "-" + _number(rng)
    if choice == 5:
        return f"({random_item(rng, depth - 1)})"
    return f"(select v from u where {random_item(rng, depth - 1)})"


def _additive(rng: random.Random, depth: int) -> str:
    left = _primary(rng, depth)
    if rng.random() < 0.6:
        return left
    operator = rng.choice(("+", "-", "*", "/", "%", "||"))
    return f"{left} {operator} {_primary(rng, depth)}"


def random_item(rng: random.Random, depth: int = 2) -> str:
    """A VALUES item: mostly literals, some expressions that continue
    past a leading literal, and nested parentheses and subqueries."""
    left = _additive(rng, depth)
    choice = rng.randrange(10)
    if choice == 0:
        return f"{left} {rng.choice(('=', '<>', '<', '>='))} {_additive(rng, depth)}"
    if choice == 1:
        return f"{left} is not null"
    if choice == 2:
        return f"{left} in (1, {_additive(rng, depth)})"
    if choice == 3:
        return f"{left} between 0 and {_additive(rng, depth)}"
    if choice == 4:
        return f"{left} and true"
    return left


@pytest.mark.parametrize("case", range(CASES))
def test_literal_shortcut_matches_descent(case):
    rng = random.Random(derive_seed("literal-shortcut", case))
    for _ in range(ITEMS_PER_CASE):
        item = random_item(rng)
        alone = parse_expression(item)
        row = parse_statement(f"insert into t values ({item})").rows[0][0]
        listed = parse_expression(f"x in ({item}, 0)").items[0]
        argument = parse_expression(f"f({item})").args[0]
        # repr as well as ==: Literal(True) == Literal(1) for dataclasses
        for parsed in (row, listed, argument):
            assert parsed == alone, item
            assert repr(parsed) == repr(alone), item
