"""Tokenizer tests."""

import pytest

from repro.errors import TokenizeError
from repro.lang import ast
from repro.lang.parser import parse_expression, parse_statement
from repro.lang.tokens import Token, TokenKind, tokenize


def kinds(source):
    return [token.kind for token in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [token.text for token in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_keywords_are_recognized(self):
        assert kinds("select from where") == [TokenKind.KEYWORD] * 3

    def test_keywords_are_case_insensitive(self):
        assert texts("SELECT FrOm WHERE") == ["select", "from", "where"]

    def test_identifiers(self):
        tokens = tokenize("emp salary_2 _hidden")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.IDENT] * 3
        assert tokens[0].text == "emp"

    def test_identifiers_are_lowercased(self):
        assert texts("Emp SALARY") == ["emp", "salary"]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].text == "42"

    def test_float_literal(self):
        tokens = tokenize("3.14")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].text == "3.14"

    def test_string_literal(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "hello world"

    def test_string_with_doubled_quote_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_empty_string_literal(self):
        assert tokenize("''")[0].text == ""

    def test_operators(self):
        assert texts("= <> <= >= < > + - * / % ||") == [
            "=", "<>", "<=", ">=", "<", ">", "+", "-", "*", "/", "%", "||",
        ]

    def test_bang_equals(self):
        assert texts("a != b") == ["a", "!=", "b"]

    def test_punctuation(self):
        assert texts("( ) , ; .") == ["(", ")", ",", ";", "."]

    def test_qualified_name_tokens(self):
        assert texts("emp.salary") == ["emp", ".", "salary"]


class TestTransitionTableSpellings:
    def test_hyphenated_new_updated_folds_to_one_token(self):
        tokens = tokenize("new-updated")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "new_updated"
        assert tokens[1].kind is TokenKind.EOF

    def test_hyphenated_old_updated(self):
        assert texts("old-updated") == ["old_updated"]

    def test_underscore_spelling_also_works(self):
        assert texts("new_updated old_updated") == ["new_updated", "old_updated"]

    def test_new_minus_other_ident_is_not_folded(self):
        assert texts("new-salary") == ["new", "-", "salary"]

    def test_inserted_deleted_are_keywords(self):
        assert kinds("inserted deleted") == [TokenKind.KEYWORD] * 2


class TestCommentsAndWhitespace:
    def test_line_comment_is_skipped(self):
        assert texts("select -- a comment\nfrom") == ["select", "from"]

    def test_comment_at_end_of_input(self):
        assert texts("select -- trailing") == ["select"]

    def test_newlines_track_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3


class TestErrors:
    def test_unterminated_string_raises(self):
        with pytest.raises(TokenizeError, match="unterminated"):
            tokenize("'oops")

    def test_newline_in_string_raises(self):
        with pytest.raises(TokenizeError, match="newline"):
            tokenize("'line\nbreak'")

    def test_stray_character_raises(self):
        with pytest.raises(TokenizeError, match="unexpected character"):
            tokenize("select @")

    def test_error_carries_position(self):
        with pytest.raises(TokenizeError) as excinfo:
            tokenize("ok\n  &")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3


class TestDecimalDigits:
    """A NUMBER is decimal digits: what ``int()`` and ``float()`` read."""

    def test_non_ascii_decimal_digit_is_a_number(self):
        tokens = tokenize("٣")
        assert (tokens[0].kind, tokens[0].text) == (TokenKind.NUMBER, "٣")
        assert parse_expression("٣") == ast.Literal(3)

    @pytest.mark.parametrize(
        "source, column",
        [("²", 1), ("¹", 1), ("1²", 2), ("1.²", 3), (".²", 2), ("٣²", 2)],
    )
    def test_other_digit_is_an_unexpected_character(self, source, column):
        with pytest.raises(TokenizeError, match="unexpected character") as excinfo:
            tokenize(source)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    def test_superscript_inside_identifier_stays_identifier(self):
        tokens = tokenize("x²")
        assert (tokens[0].kind, tokens[0].text) == (TokenKind.IDENT, "x²")

    def test_superscript_operand_is_a_tokenize_error_not_value_error(self):
        with pytest.raises(TokenizeError, match="'²'"):
            parse_expression("x + ²")
        with pytest.raises(TokenizeError, match="'¹'"):
            parse_statement("insert into t values (¹, 2)")


class TestTokenHelpers:
    def test_matches_kind_and_text(self):
        token = Token(TokenKind.KEYWORD, "select", 1, 1)
        assert token.matches(TokenKind.KEYWORD)
        assert token.matches(TokenKind.KEYWORD, "select")
        assert not token.matches(TokenKind.KEYWORD, "from")
        assert not token.matches(TokenKind.IDENT)

    def test_str_of_eof(self):
        assert str(Token(TokenKind.EOF, "", 1, 1)) == "<end of input>"

    def test_token_is_an_immutable_tuple(self):
        token = Token(TokenKind.NUMBER, "7", 2, 5)
        assert token == (TokenKind.NUMBER, "7", 2, 5)
        assert (token.kind, token.text, token.line, token.column) == tuple(token)
        with pytest.raises(AttributeError):
            token.text = "8"
