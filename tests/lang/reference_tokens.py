"""The character-at-a-time scanner that ``repro.lang.tokens`` replaced.

Kept unchanged as the reference the one-pattern scanner is checked
against (``tests/lang/test_scanner_equivalence.py``). It builds the
current :class:`~repro.lang.tokens.Token` type so token lists compare
directly. The one intended difference: this scanner makes a NUMBER of
any ``str.isdigit`` run, so superscript digits such as ``²`` became
NUMBER tokens that ``int()`` could not read; the current scanner reads
only decimal digits and rejects the others as unexpected characters.
"""

from __future__ import annotations

from repro.errors import TokenizeError
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Multi-character operators, longest first so that the scanner is greedy.
_MULTI_CHAR_OPERATORS = ("<>", "<=", ">=", "!=", "||")
_SINGLE_CHAR_OPERATORS = "=<>+-*/%"
_PUNCTUATION = "(),;."


def _is_ident_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_ident_part(char: str) -> bool:
    return char.isalnum() or char == "_"


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a token list terminated by an EOF token.

    Raises :class:`~repro.errors.TokenizeError` on invalid input such as
    an unterminated string literal or a stray character.
    """
    tokens: list[Token] = []
    position = 0
    line = 1
    line_start = 0
    length = len(source)

    def column() -> int:
        return position - line_start + 1

    while position < length:
        char = source[position]

        if char == "\n":
            position += 1
            line += 1
            line_start = position
            continue
        if char.isspace():
            position += 1
            continue

        # SQL-style comments: '--' to end of line.
        if source.startswith("--", position):
            newline = source.find("\n", position)
            position = length if newline < 0 else newline
            continue

        start_line, start_column = line, column()

        if _is_ident_start(char):
            start = position
            position += 1
            while position < length and _is_ident_part(source[position]):
                position += 1
            word = source[start:position].lower()
            # The paper spells two transition tables with a hyphen
            # ("new-updated" / "old-updated"); fold that spelling into a
            # single identifier token.
            if word in ("new", "old") and source.startswith(
                "-updated", position
            ):
                position += len("-updated")
                word = f"{word}_updated"
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, start_line, start_column))
            continue

        if char.isdigit() or (
            char == "." and position + 1 < length and source[position + 1].isdigit()
        ):
            start = position
            seen_dot = False
            while position < length:
                current = source[position]
                if current.isdigit():
                    position += 1
                elif current == "." and not seen_dot:
                    seen_dot = True
                    position += 1
                else:
                    break
            text = source[start:position]
            if text.endswith("."):
                # Trailing dot belongs to punctuation (e.g. "1." is invalid
                # here; treat "t.c" style access via IDENT '.' IDENT only).
                position -= 1
                text = text[:-1]
            tokens.append(Token(TokenKind.NUMBER, text, start_line, start_column))
            continue

        if char == "'":
            position += 1
            pieces: list[str] = []
            while True:
                if position >= length:
                    raise TokenizeError(
                        "unterminated string literal", start_line, start_column
                    )
                current = source[position]
                if current == "'":
                    # SQL escapes a quote by doubling it.
                    if position + 1 < length and source[position + 1] == "'":
                        pieces.append("'")
                        position += 2
                        continue
                    position += 1
                    break
                if current == "\n":
                    raise TokenizeError(
                        "newline in string literal", start_line, start_column
                    )
                pieces.append(current)
                position += 1
            tokens.append(
                Token(TokenKind.STRING, "".join(pieces), start_line, start_column)
            )
            continue

        matched_operator = None
        for operator in _MULTI_CHAR_OPERATORS:
            if source.startswith(operator, position):
                matched_operator = operator
                break
        if matched_operator is not None:
            position += len(matched_operator)
            tokens.append(
                Token(TokenKind.OPERATOR, matched_operator, start_line, start_column)
            )
            continue

        if char in _SINGLE_CHAR_OPERATORS:
            position += 1
            tokens.append(Token(TokenKind.OPERATOR, char, start_line, start_column))
            continue

        if char in _PUNCTUATION:
            position += 1
            tokens.append(Token(TokenKind.PUNCT, char, start_line, start_column))
            continue

        raise TokenizeError(f"unexpected character {char!r}", line, column())

    tokens.append(Token(TokenKind.EOF, "", line, column()))
    return tokens
