"""Recursive-descent parser for the rule language and its SQL subset.

Grammar summary (keywords case-insensitive)::

    rule        := 'create' 'rule' IDENT 'on' IDENT
                   'when' trigger (',' trigger)*
                   ['if' expression]
                   'then' statement (';' statement)* [';']
                   ['precedes' IDENT (',' IDENT)*]
                   ['follows' IDENT (',' IDENT)*]

    trigger     := 'inserted' | 'deleted' | 'updated' ['(' IDENT (',' IDENT)* ')']

    statement   := select | insert | delete | update | rollback
    select      := 'select' ['distinct'] ('*' | item (',' item)*)
                   'from' tableref (',' tableref)* ['where' expression]
    insert      := 'insert' 'into' IDENT
                   ( 'values' row (',' row)* | '(' select ')' | select )
    delete      := 'delete' 'from' IDENT [IDENT] ['where' expression]
    update      := 'update' IDENT [IDENT] 'set' assign (',' assign)*
                   ['where' expression]
    rollback    := 'rollback' [STRING]

    expression  := standard precedence: or < and < not < comparison
                   (=, <>, !=, <, <=, >, >=, is [not] null, [not] in,
                   [not] between, [not] like, [not] exists) < additive
                   (+, -, ||) < multiplicative (*, /, %) < unary -
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.tokens import Token, TokenKind, tokenize

_COMPARISON_OPERATORS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})

#: The keywords that denote literal values.
_KEYWORD_LITERALS = {"null": None, "true": True, "false": False}


def _literal(token: Token) -> ast.Literal | None:
    """The literal *token* denotes, or None if it denotes none."""
    kind = token.kind
    if kind is TokenKind.NUMBER:
        text = token.text
        return ast.Literal(float(text) if "." in text else int(text))
    if kind is TokenKind.STRING:
        return ast.Literal(token.text)
    if kind is TokenKind.KEYWORD and token.text in _KEYWORD_LITERALS:
        return ast.Literal(_KEYWORD_LITERALS[token.text])
    return None


class Parser:
    """A single-use parser over a token list."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._position = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._position]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind is not TokenKind.EOF:
            self._position += 1
        return token

    def _check(self, kind: TokenKind, text: str | None = None) -> bool:
        token = self._tokens[self._position]
        return token.kind is kind and (text is None or token.text == text)

    def _accept(self, kind: TokenKind, text: str | None = None) -> Token | None:
        token = self._tokens[self._position]
        if token.kind is not kind or (text is not None and token.text != text):
            return None
        if kind is not TokenKind.EOF:
            self._position += 1
        return token

    def _expect(self, kind: TokenKind, text: str | None = None) -> Token:
        token = self._accept(kind, text)
        if token is not None:
            return token
        token = self._tokens[self._position]
        wanted = text if text is not None else kind.value
        raise ParseError(
            f"expected {wanted!r}, found {token}", token.line, token.column
        )

    def _expect_name(self) -> str:
        """Accept an identifier; transition-table keywords also qualify."""
        token = self._current
        if token.kind is TokenKind.IDENT:
            return self._advance().text
        if token.kind is TokenKind.KEYWORD and token.text in (
            "inserted",
            "deleted",
        ):
            # 'inserted'/'deleted' double as transition table names.
            return self._advance().text
        raise ParseError(
            f"expected a name, found {token}", token.line, token.column
        )

    def at_end(self) -> bool:
        return self._current.kind is TokenKind.EOF

    # ------------------------------------------------------------------
    # Rule definitions
    # ------------------------------------------------------------------

    def parse_rule(self) -> ast.RuleDefinition:
        self._expect(TokenKind.KEYWORD, "create")
        self._expect(TokenKind.KEYWORD, "rule")
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.KEYWORD, "on")
        table = self._expect(TokenKind.IDENT).text

        self._expect(TokenKind.KEYWORD, "when")
        triggers = [self._parse_trigger()]
        while self._accept(TokenKind.PUNCT, ","):
            triggers.append(self._parse_trigger())

        condition = None
        if self._accept(TokenKind.KEYWORD, "if"):
            condition = self.parse_expression()

        self._expect(TokenKind.KEYWORD, "then")
        actions = [self.parse_statement()]
        while self._accept(TokenKind.PUNCT, ";"):
            if self._starts_statement():
                actions.append(self.parse_statement())
            else:
                break

        precedes: list[str] = []
        follows: list[str] = []
        while self._check(TokenKind.KEYWORD, "precedes") or self._check(
            TokenKind.KEYWORD, "follows"
        ):
            clause = self._advance().text
            names = [self._expect(TokenKind.IDENT).text]
            while self._accept(TokenKind.PUNCT, ","):
                names.append(self._expect(TokenKind.IDENT).text)
            if clause == "precedes":
                precedes.extend(names)
            else:
                follows.extend(names)

        try:
            return ast.RuleDefinition(
                name=name,
                table=table,
                triggers=tuple(triggers),
                condition=condition,
                actions=tuple(actions),
                precedes=tuple(precedes),
                follows=tuple(follows),
            )
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def parse_rules(self) -> list[ast.RuleDefinition]:
        """Parse a sequence of rule definitions until end of input."""
        rules = []
        while not self.at_end():
            rules.append(self.parse_rule())
            self._accept(TokenKind.PUNCT, ";")
        return rules

    def _parse_trigger(self) -> ast.TriggerSpec:
        token = self._current
        if self._accept(TokenKind.KEYWORD, "inserted"):
            return ast.TriggerSpec(ast.TriggerKind.INSERTED)
        if self._accept(TokenKind.KEYWORD, "deleted"):
            return ast.TriggerSpec(ast.TriggerKind.DELETED)
        if self._accept(TokenKind.KEYWORD, "updated"):
            columns: list[str] = []
            if self._accept(TokenKind.PUNCT, "("):
                columns.append(self._expect(TokenKind.IDENT).text)
                while self._accept(TokenKind.PUNCT, ","):
                    columns.append(self._expect(TokenKind.IDENT).text)
                self._expect(TokenKind.PUNCT, ")")
            return ast.TriggerSpec(ast.TriggerKind.UPDATED, tuple(columns))
        raise ParseError(
            f"expected 'inserted', 'deleted' or 'updated', found {token}",
            token.line,
            token.column,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _starts_statement(self) -> bool:
        return self._current.kind is TokenKind.KEYWORD and self._current.text in (
            "select",
            "insert",
            "delete",
            "update",
            "rollback",
        )

    def parse_statement(self) -> ast.Statement:
        token = self._current
        if token.matches(TokenKind.KEYWORD, "select"):
            return self._parse_select()
        if token.matches(TokenKind.KEYWORD, "insert"):
            return self._parse_insert()
        if token.matches(TokenKind.KEYWORD, "delete"):
            return self._parse_delete()
        if token.matches(TokenKind.KEYWORD, "update"):
            return self._parse_update()
        if token.matches(TokenKind.KEYWORD, "rollback"):
            self._advance()
            message = ""
            string = self._accept(TokenKind.STRING)
            if string is not None:
                message = string.text
            return ast.Rollback(message)
        raise ParseError(
            f"expected a statement, found {token}", token.line, token.column
        )

    def _parse_select(self) -> ast.Select:
        self._expect(TokenKind.KEYWORD, "select")
        distinct = self._accept(TokenKind.KEYWORD, "distinct") is not None

        items: list[ast.SelectItem] = []
        if self._accept(TokenKind.OPERATOR, "*"):
            pass  # SELECT * — empty items tuple
        else:
            items.append(self._parse_select_item())
            while self._accept(TokenKind.PUNCT, ","):
                items.append(self._parse_select_item())

        self._expect(TokenKind.KEYWORD, "from")
        tables = [self._parse_table_ref()]
        while self._accept(TokenKind.PUNCT, ","):
            tables.append(self._parse_table_ref())

        where = None
        if self._accept(TokenKind.KEYWORD, "where"):
            where = self.parse_expression()

        group_by: list[ast.Expression] = []
        having = None
        if self._accept(TokenKind.KEYWORD, "group"):
            self._expect(TokenKind.KEYWORD, "by")
            group_by.append(self.parse_expression())
            while self._accept(TokenKind.PUNCT, ","):
                group_by.append(self.parse_expression())
            if self._accept(TokenKind.KEYWORD, "having"):
                having = self.parse_expression()

        return ast.Select(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            distinct=distinct,
            group_by=tuple(group_by),
            having=having,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expression()
        alias = None
        if self._accept(TokenKind.KEYWORD, "as"):
            alias = self._expect(TokenKind.IDENT).text
        elif self._current.kind is TokenKind.IDENT:
            alias = self._advance().text
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_name()
        alias = None
        if self._accept(TokenKind.KEYWORD, "as"):
            alias = self._expect(TokenKind.IDENT).text
        elif self._current.kind is TokenKind.IDENT:
            alias = self._advance().text
        return ast.TableRef(name=name, alias=alias)

    def _parse_insert(self) -> ast.Insert:
        self._expect(TokenKind.KEYWORD, "insert")
        self._expect(TokenKind.KEYWORD, "into")
        table = self._expect_name()

        if self._accept(TokenKind.KEYWORD, "values"):
            rows = [self._parse_value_row()]
            while self._accept(TokenKind.PUNCT, ","):
                rows.append(self._parse_value_row())
            return ast.Insert(table=table, rows=tuple(rows))

        if self._check(TokenKind.PUNCT, "(") and self._peek().matches(
            TokenKind.KEYWORD, "select"
        ):
            self._advance()  # consume '('
            query = self._parse_select()
            self._expect(TokenKind.PUNCT, ")")
            return ast.Insert(table=table, query=query)

        if self._check(TokenKind.KEYWORD, "select"):
            return ast.Insert(table=table, query=self._parse_select())

        raise ParseError(
            f"expected 'values' or a select, found {self._current}",
            self._current.line,
            self._current.column,
        )

    def _parse_value_row(self) -> tuple[ast.Expression, ...]:
        self._expect(TokenKind.PUNCT, "(")
        values = [self.parse_expression()]
        while self._accept(TokenKind.PUNCT, ","):
            values.append(self.parse_expression())
        self._expect(TokenKind.PUNCT, ")")
        return tuple(values)

    def _parse_delete(self) -> ast.Delete:
        self._expect(TokenKind.KEYWORD, "delete")
        self._expect(TokenKind.KEYWORD, "from")
        table = self._expect_name()
        alias = None
        if self._current.kind is TokenKind.IDENT:
            alias = self._advance().text
        where = None
        if self._accept(TokenKind.KEYWORD, "where"):
            where = self.parse_expression()
        return ast.Delete(table=table, alias=alias, where=where)

    def _parse_update(self) -> ast.Update:
        self._expect(TokenKind.KEYWORD, "update")
        table = self._expect_name()
        alias = None
        if self._current.kind is TokenKind.IDENT and not self._current.matches(
            TokenKind.KEYWORD, "set"
        ):
            alias = self._advance().text
        self._expect(TokenKind.KEYWORD, "set")
        assignments = [self._parse_assignment()]
        while self._accept(TokenKind.PUNCT, ","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept(TokenKind.KEYWORD, "where"):
            where = self.parse_expression()
        return ast.Update(
            table=table,
            alias=alias,
            assignments=tuple(assignments),
            where=where,
        )

    def _parse_assignment(self) -> ast.Assignment:
        column = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.OPERATOR, "=")
        value = self.parse_expression()
        return ast.Assignment(column=column, value=value)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        """Parse one expression starting at the current token.

        A literal followed by ``,`` or ``)`` (a VALUES item, an IN-list
        item, a call argument) becomes its :class:`ast.Literal` without
        the precedence descent. The descent returns exactly that node
        there, one token on: each of its levels continues only at an
        operator or a keyword (``or``, ``and``, a comparison, ``is``,
        ``not``, ``in``, ``between``, ``like``, ``+``, ``*``, ...), and
        ``,`` or ``)`` is neither.
        """
        position = self._position
        literal = _literal(self._tokens[position])
        if literal is not None:
            # A literal is never the EOF token, so a follower exists.
            follower = self._tokens[position + 1]
            if follower.kind is TokenKind.PUNCT and follower.text in (",", ")"):
                self._position = position + 1
                return literal
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept(TokenKind.KEYWORD, "or"):
            right = self._parse_and()
            left = ast.BinaryOp("or", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept(TokenKind.KEYWORD, "and"):
            right = self._parse_not()
            left = ast.BinaryOp("and", left, right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self._check(TokenKind.KEYWORD, "not") and not self._peek().matches(
            TokenKind.KEYWORD, "exists"
        ):
            self._advance()
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        token = self._tokens[self._position]
        if token.kind is TokenKind.KEYWORD and (
            token.text == "exists"
            or (
                token.text == "not"
                and self._peek().matches(TokenKind.KEYWORD, "exists")
            )
        ):
            negated = self._accept(TokenKind.KEYWORD, "not") is not None
            self._expect(TokenKind.KEYWORD, "exists")
            self._expect(TokenKind.PUNCT, "(")
            subquery = self._parse_select()
            self._expect(TokenKind.PUNCT, ")")
            return ast.Exists(subquery=subquery, negated=negated)

        left = self._parse_additive()

        token = self._tokens[self._position]
        if token.kind is TokenKind.OPERATOR and token.text in _COMPARISON_OPERATORS:
            self._position += 1
            op = "<>" if token.text == "!=" else token.text
            right = self._parse_additive()
            return ast.BinaryOp(op, left, right)
        if token.kind is not TokenKind.KEYWORD:
            return left  # everything below continues at a keyword

        if self._check(TokenKind.KEYWORD, "is"):
            self._advance()
            negated = self._accept(TokenKind.KEYWORD, "not") is not None
            self._expect(TokenKind.KEYWORD, "null")
            return ast.IsNull(operand=left, negated=negated)

        negated = False
        if self._check(TokenKind.KEYWORD, "not") and self._peek().kind is (
            TokenKind.KEYWORD
        ) and self._peek().text in ("in", "between", "like"):
            self._advance()
            negated = True

        if self._accept(TokenKind.KEYWORD, "in"):
            self._expect(TokenKind.PUNCT, "(")
            if self._check(TokenKind.KEYWORD, "select"):
                subquery = self._parse_select()
                self._expect(TokenKind.PUNCT, ")")
                return ast.InSubquery(
                    operand=left, subquery=subquery, negated=negated
                )
            items = [self.parse_expression()]
            while self._accept(TokenKind.PUNCT, ","):
                items.append(self.parse_expression())
            self._expect(TokenKind.PUNCT, ")")
            return ast.InList(operand=left, items=tuple(items), negated=negated)

        if self._accept(TokenKind.KEYWORD, "between"):
            low = self._parse_additive()
            self._expect(TokenKind.KEYWORD, "and")
            high = self._parse_additive()
            return ast.Between(operand=left, low=low, high=high, negated=negated)

        if self._accept(TokenKind.KEYWORD, "like"):
            pattern = self._parse_additive()
            return ast.BinaryOp("not like" if negated else "like", left, pattern)

        if negated:
            raise ParseError(
                f"expected 'in', 'between' or 'like' after 'not', found "
                f"{self._current}",
                self._current.line,
                self._current.column,
            )
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        token = self._tokens[self._position]
        while token.kind is TokenKind.OPERATOR and token.text in ("+", "-", "||"):
            self._position += 1
            right = self._parse_multiplicative()
            left = ast.BinaryOp(token.text, left, right)
            token = self._tokens[self._position]
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        token = self._tokens[self._position]
        while token.kind is TokenKind.OPERATOR and token.text in ("*", "/", "%"):
            self._position += 1
            right = self._parse_unary()
            left = ast.BinaryOp(token.text, left, right)
            token = self._tokens[self._position]
        return left

    def _parse_unary(self) -> ast.Expression:
        token = self._tokens[self._position]
        if token.kind is TokenKind.OPERATOR and token.text in ("-", "+"):
            self._position += 1
            operand = self._parse_unary()
            return ast.UnaryOp("-", operand) if token.text == "-" else operand
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._tokens[self._position]

        literal = _literal(token)
        if literal is not None:
            self._position += 1
            return literal

        if token.kind is TokenKind.PUNCT and token.text == "(":
            self._advance()
            if self._check(TokenKind.KEYWORD, "select"):
                subquery = self._parse_select()
                self._expect(TokenKind.PUNCT, ")")
                return ast.ScalarSubquery(subquery=subquery)
            expr = self.parse_expression()
            self._expect(TokenKind.PUNCT, ")")
            return expr

        if token.kind is TokenKind.IDENT or (
            token.kind is TokenKind.KEYWORD
            and token.text in ast.TRANSITION_TABLE_NAMES
        ):
            return self._parse_name_or_call()

        raise ParseError(
            f"expected an expression, found {token}", token.line, token.column
        )

    def _parse_name_or_call(self) -> ast.Expression:
        name = self._advance().text

        if self._check(TokenKind.PUNCT, "("):
            self._advance()
            if self._accept(TokenKind.OPERATOR, "*"):
                self._expect(TokenKind.PUNCT, ")")
                return ast.FuncCall(name=name, star=True)
            distinct = self._accept(TokenKind.KEYWORD, "distinct") is not None
            args = []
            if not self._check(TokenKind.PUNCT, ")"):
                args.append(self.parse_expression())
                while self._accept(TokenKind.PUNCT, ","):
                    args.append(self.parse_expression())
            self._expect(TokenKind.PUNCT, ")")
            return ast.FuncCall(name=name, args=tuple(args), distinct=distinct)

        if self._check(TokenKind.PUNCT, "."):
            self._advance()
            column = self._expect(TokenKind.IDENT).text
            return ast.ColumnRef(table=name, column=column)

        return ast.ColumnRef(table=None, column=name)


def parse_rule(source: str) -> ast.RuleDefinition:
    """Parse a single ``create rule`` statement from *source*."""
    parser = Parser(source)
    rule = parser.parse_rule()
    parser._accept(TokenKind.PUNCT, ";")
    if not parser.at_end():
        token = parser._current
        raise ParseError(
            f"unexpected trailing input: {token}", token.line, token.column
        )
    return rule


def parse_rules(source: str) -> list[ast.RuleDefinition]:
    """Parse zero or more ``create rule`` statements from *source*."""
    return Parser(source).parse_rules()


def parse_statement(source: str) -> ast.Statement:
    """Parse a single SQL statement from *source*."""
    parser = Parser(source)
    stmt = parser.parse_statement()
    parser._accept(TokenKind.PUNCT, ";")
    if not parser.at_end():
        token = parser._current
        raise ParseError(
            f"unexpected trailing input: {token}", token.line, token.column
        )
    return stmt


def parse_expression(source: str) -> ast.Expression:
    """Parse a single expression from *source*."""
    parser = Parser(source)
    expr = parser.parse_expression()
    if not parser.at_end():
        token = parser._current
        raise ParseError(
            f"unexpected trailing input: {token}", token.line, token.column
        )
    return expr
