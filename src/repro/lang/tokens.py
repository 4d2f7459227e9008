"""Tokenizer for the rule definition language and its SQL subset.

The scanner is one compiled regular expression, applied line by line in
a single pass (:func:`tokenize`). It is case-insensitive for keywords
(normalized to lower case) and case-preserving for identifiers, which
are nevertheless compared case-insensitively by the parser (identifiers
are normalized to lower case as well, matching the usual SQL
convention).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import TokenizeError

#: Reserved words of the rule language and its SQL subset. Transition
#: table names are deliberately *not* keywords so they can also be used
#: as ordinary identifiers when no ambiguity arises.
KEYWORDS = frozenset(
    {
        "create",
        "rule",
        "on",
        "when",
        "if",
        "then",
        "precedes",
        "follows",
        "inserted",
        "deleted",
        "updated",
        "insert",
        "into",
        "values",
        "delete",
        "from",
        "update",
        "set",
        "where",
        "group",
        "by",
        "having",
        "select",
        "distinct",
        "as",
        "and",
        "or",
        "not",
        "null",
        "is",
        "in",
        "exists",
        "between",
        "like",
        "rollback",
        "true",
        "false",
    }
)


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    """A single lexical token with its source position (1-based).

    A tuple ``(kind, text, line, column)``: the scanner builds one per
    token, and a tuple is the cheapest immutable record to build.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def matches(self, kind: TokenKind, text: str | None = None) -> bool:
        """Return True if this token has the given kind (and text, if any)."""
        if self.kind is not kind:
            return False
        return text is None or self.text == text

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<end of input>"
        return repr(self.text)


#: The whole lexical grammar. :func:`tokenize` applies it to one line at
#: a time, so a match never spans a newline; at each position the first
#: alternative that matches wins. ``\s`` is ``str.isspace``, ``\w`` is
#: ``str.isalnum`` or ``_``, and ``\d`` is ``str.isdecimal``.
_TOKEN_PATTERN = re.compile(
    r"""
      (?P<space>\s+|--.*)                    # blanks; a comment runs to end of line
    | (?P<updated>(?:[nN][eE][wW]|[oO][lL][dD])-updated)
    | (?P<word>[A-Za-z_]\w*)
    | (?P<number>\d+(?:\.\d+)?|\.\d+)          # a trailing dot is punctuation
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))    # '' escapes a quote
    | (?P<operator><>|<=|>=|!=|\|\||[-=<>+*/%])
    | (?P<punct>[(),;.])
    | (?P<other_word>\w+)                     # starts with a non-ASCII character
    | (?P<open_string>')                      # no closing quote on this line
    | (?P<other>.)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a token list terminated by an EOF token.

    One pass of a compiled pattern over each line. Words are keywords
    when they lower-case into :data:`KEYWORDS` and identifiers
    otherwise; an identifier starts with a letter or ``_``. The paper's
    hyphenated transition tables ``new-updated``/``old-updated`` fold
    into the identifiers ``new_updated``/``old_updated``. A NUMBER is
    decimal digits (``str.isdecimal``, what ``int()`` and ``float()``
    read) with at most one dot, which a digit must follow; so ``٣``
    reads as 3, while ``²`` is an unexpected character (``x²`` is an
    identifier). A string doubles a quote to escape it and may not span
    lines.

    Raises :class:`~repro.errors.TokenizeError` on invalid input such as
    an unterminated string literal or a stray character, at the
    position of the string's opening quote or of the character.
    """
    tokens: list[Token] = []
    new_token = tuple.__new__  # Token(...) without its Python-level __new__
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for match in _TOKEN_PATTERN.finditer(text):
            group = match.lastgroup
            if group == "space":
                continue
            value = match.group()
            column = match.start() + 1
            if group == "number":
                kind = TokenKind.NUMBER
            elif group == "punct":
                kind = TokenKind.PUNCT
            elif group == "word" or (
                group == "other_word" and value[0].isalpha()
            ):
                value = value.lower()
                kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
            elif group == "operator":
                kind = TokenKind.OPERATOR
            elif group == "string":
                kind = TokenKind.STRING
                value = value[1:-1].replace("''", "'")
            elif group == "updated":
                kind = TokenKind.IDENT
                value = value[:3].lower() + "_updated"
            elif group == "open_string":
                message = (
                    "unterminated string literal"
                    if line == len(lines)
                    else "newline in string literal"
                )
                raise TokenizeError(message, line, column)
            else:
                raise TokenizeError(
                    f"unexpected character {value[0]!r}", line, column
                )
            tokens.append(new_token(Token, (kind, value, line, column)))
    tokens.append(Token(TokenKind.EOF, "", len(lines), len(lines[-1]) + 1))
    return tokens
