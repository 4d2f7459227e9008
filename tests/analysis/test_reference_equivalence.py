"""The folds over ``repro.analysis.scoping`` against the walkers they replaced.

Every rule's ``Reads``, Obs-extended ``Reads``, ``ColumnReads``,
``RowReadTables``, closed-WHERE check and RPL006/RPL008 findings must
equal those of the four scoped walkers kept unchanged in
``tests/analysis/reference_reads.py``.

The repository's workload generators emit only unqualified ``select *``,
so the programs here come from a generator of their own, which reaches
the scoping constructs those do not: aliased FROM, UPDATE and DELETE
(aliases may shadow table and transition-table names), correlated
references to outer bindings, unbound and transition-table qualifiers,
unqualified columns that zero, one or several tables in scope have,
``exists``/``not exists``/``in``/scalar subqueries nested to depth 3,
``select *``, ``select 1``, ``count(*)`` and ``max(x)``, ``group by …
having``, ``insert … values`` with scalar subqueries, ``insert …
select``, and observable ``select`` and ``rollback`` actions.

Seeds come from ``tests/seeding.py``; rerun with ``--base-seed=N``.
"""

import random

import pytest

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.derived import (
    OBS_COLUMN,
    OBS_TABLE,
    DerivedDefinitions,
    ObsExtendedDefinitions,
)
from repro.lang import ast
from repro.lint import lint_ruleset
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from tests.analysis import reference_reads
from tests.seeding import derive_seed

CASES = 8
PROGRAMS_PER_CASE = 50

SCHEMA = schema_from_spec(
    {
        "t": ["id", "a", "b"],
        "u": ["id", "b", "c"],
        "v": ["id", "c", "d"],
        "w": ["k", "e"],
    }
)
TABLES = ("t", "u", "v", "w")
#: ``z`` is a column no table has; ``id``, ``b`` and ``c`` are shared
COLUMNS = ("id", "a", "b", "c", "d", "e", "k", "z")
TRANSITIONS = ("inserted", "deleted", "new_updated", "old_updated")
#: aliases, some shadowing a table or a transition-table name
ALIASES = ("x", "y", "t", "u", "new_updated")
#: a qualifier no scope or schema knows
UNKNOWN = "q"
MAX_DEPTH = 3


class ProgramWriter:
    """Random rule programs over :data:`SCHEMA`.

    A scope is the list of binding names a level makes visible; the
    writer keeps the chain so a qualifier can name an outer binding
    (a correlated reference) as well as one no level binds."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def program(self) -> str:
        return "\n".join(
            self.rule(f"r{index}")
            for index in range(self.rng.randint(1, 4))
        )

    def rule(self, name: str) -> str:
        rng = self.rng
        table = rng.choice(TABLES[:3])
        source = (
            f"create rule {name} on {table} "
            f"when inserted, deleted, updated"
        )
        if rng.random() < 0.75:
            source += f" if {self.predicate([], 0, 2)}"
        actions = [self.action() for __ in range(rng.randint(1, 3))]
        return f"{source} then {'; '.join(actions)}"

    # -- statements -----------------------------------------------------

    def action(self) -> str:
        rng = self.rng
        roll = rng.random()
        target = rng.choice(TABLES)
        if roll < 0.14:
            return self.select([], 1, "rows")
        if roll < 0.2:
            return "rollback 'stop'"
        if roll < 0.38:
            width = len(SCHEMA.table(target).column_names)
            rows = [
                "("
                + ", ".join(self.value([], 0, 1) for __ in range(width))
                + ")"
                for __ in range(rng.randint(1, 2))
            ]
            return f"insert into {target} values {', '.join(rows)}"
        if roll < 0.5:
            query = self.select([], 1, "rows")
            if rng.random() < 0.5:
                return f"insert into {target} ({query})"
            return f"insert into {target} {query}"
        alias = rng.choice(ALIASES) if rng.random() < 0.4 else None
        scope = [alias, target] if alias else [target]
        named = f"{target} {alias}" if alias else target
        where = (
            f" where {self.predicate([scope], 0, 2)}"
            if rng.random() < 0.8
            else ""
        )
        if roll < 0.72:
            return f"delete from {named}{where}"
        columns = SCHEMA.table(target).column_names
        assignments = ", ".join(
            f"{column} = {self.value([scope], 0, 2)}"
            for column in rng.sample(columns, rng.randint(1, len(columns)))
        )
        return f"update {named} set {assignments}{where}"

    def select(self, scopes: list, depth: int, shape: str) -> str:
        """A select at nesting *depth*. *shape* is ``exists``, ``value``
        (one output column: IN and scalar subqueries) or ``rows`` (an
        action select or an insert's query)."""
        rng = self.rng
        names = rng.sample(TABLES + TRANSITIONS, rng.randint(1, 3))
        level: list[str] = []
        refs = []
        for name in names:
            alias = rng.choice(ALIASES) if rng.random() < 0.35 else None
            level.append(alias or name)
            refs.append(f"{name} {alias}" if alias else name)
        inner = scopes + [level]
        items = self.items(inner, depth, shape)
        source = f"select {items} from {', '.join(refs)}"
        if rng.random() < 0.6:
            source += f" where {self.predicate(inner, depth, 2)}"
        if rng.random() < 0.15:
            source += f" group by {self.column(inner)}"
            if rng.random() < 0.3:
                source += " having count(*) > 1"
            elif rng.random() < 0.5:
                source += f" having {self.predicate(inner, depth, 1)}"
        return source

    def items(self, scopes: list, depth: int, shape: str) -> str:
        rng = self.rng
        if shape == "value":
            return "*" if rng.random() < 0.1 else self.item(scopes, depth)
        if rng.random() < 0.35:
            return "*"
        return ", ".join(
            self.item(scopes, depth) for __ in range(rng.randint(1, 3))
        )

    def item(self, scopes: list, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.2:
            return "1"
        if roll < 0.35:
            return "count(*)"
        if roll < 0.5:
            return f"max({self.column(scopes)})"
        if roll < 0.75:
            return self.column(scopes)
        return self.value(scopes, depth, 1)

    # -- expressions ----------------------------------------------------

    def column(self, scopes: list) -> str:
        rng = self.rng
        column = rng.choice(COLUMNS)
        roll = rng.random()
        if roll < 0.4:
            return column
        bound = [name for level in scopes for name in level]
        if bound and roll < 0.75:
            qualifier = rng.choice(bound)
        else:
            qualifier = rng.choice(TABLES + TRANSITIONS + (UNKNOWN,))
        return f"{qualifier}.{column}"

    def value(self, scopes: list, depth: int, size: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            return self.column(scopes)
        if roll < 0.6:
            return str(rng.randint(0, 9))
        if roll < 0.75 and size > 0:
            return (
                f"{self.value(scopes, depth, size - 1)} + "
                f"{self.value(scopes, depth, size - 1)}"
            )
        if depth < MAX_DEPTH:
            return f"({self.select(scopes, depth + 1, 'value')})"
        return self.column(scopes)

    def predicate(self, scopes: list, depth: int, size: int) -> str:
        rng = self.rng
        roll = rng.random()
        if size > 0 and roll < 0.15:
            op = rng.choice(["and", "or"])
            return (
                f"{self.predicate(scopes, depth, size - 1)} {op} "
                f"{self.predicate(scopes, depth, size - 1)}"
            )
        if depth < MAX_DEPTH and roll < 0.55:
            sub = rng.random()
            if sub < 0.35:
                negated = "not " if rng.random() < 0.4 else ""
                return (
                    f"{negated}exists "
                    f"({self.select(scopes, depth + 1, 'exists')})"
                )
            if sub < 0.7:
                negated = "not " if rng.random() < 0.3 else ""
                return (
                    f"{self.value(scopes, depth, 0)} {negated}in "
                    f"({self.select(scopes, depth + 1, 'value')})"
                )
            return (
                f"({self.select(scopes, depth + 1, 'value')}) "
                f"{rng.choice(['>', '=', '<'])} {self.value(scopes, depth, 0)}"
            )
        if roll < 0.65:
            return f"{self.value(scopes, depth, 1)} is null"
        if roll < 0.72:
            return f"{self.value(scopes, depth, 0)} between 1 and 5"
        if roll < 0.78:
            return f"not {self.value(scopes, depth, 0)} in (1, 2)"
        return (
            f"{self.value(scopes, depth, 1)} "
            f"{rng.choice(['=', '<', '>', '<>'])} "
            f"{self.value(scopes, depth, 1)}"
        )


def generated_programs(case: int) -> list[RuleSet]:
    rng = random.Random(derive_seed("reference-equivalence", case))
    writer = ProgramWriter(rng)
    return [
        RuleSet.parse(writer.program(), SCHEMA)
        for __ in range(PROGRAMS_PER_CASE)
    ]


def findings(ruleset: RuleSet, code: str) -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for diagnostic in lint_ruleset(ruleset, only={code}).diagnostics:
        found.setdefault(diagnostic.rule, []).append(diagnostic.message)
    return found


@pytest.mark.parametrize("case", range(CASES))
def test_folds_match_reference_walkers(case):
    for ruleset in generated_programs(case):
        base = DerivedDefinitions(ruleset)
        obs = ObsExtendedDefinitions(ruleset)
        commutativity = CommutativityAnalyzer(base)
        unknown = findings(ruleset, "RPL006")
        ambiguous = findings(ruleset, "RPL008")
        for rule in ruleset:
            name = rule.name
            where = f"rule {rule.source()}"
            reads = reference_reads._compute_reads(rule)
            assert base.reads(name) == reads, where
            obs_reads = reads | (
                {(OBS_TABLE, OBS_COLUMN)} if rule.is_observable else set()
            )
            assert obs.reads(name) == obs_reads, where
            footprint = base.dataflow(name)
            assert footprint.column_reads == (
                reference_reads.compute_column_reads(rule)
            ), where
            assert footprint.row_read_tables == (
                reference_reads.compute_row_read_tables(rule)
            ), where
            for table in TABLES:
                assert commutativity._reads_only_via_closed_wheres(
                    name, table
                ) == reference_reads._reads_only_via_closed_wheres(
                    rule, table
                ), (where, table)
            assert unknown.get(name, []) == sorted(
                reference_reads.unknown_column_messages(rule)
            ), where
            assert ambiguous.get(name, []) == sorted(
                reference_reads.ambiguous_column_messages(rule)
            ), where


#: every construct the generator must reach; see :func:`constructs`
CONSTRUCTS = frozenset(
    {
        "aliased FROM",
        "aliased UPDATE",
        "aliased DELETE",
        "transition FROM",
        "transition qualifier",
        "correlated reference",
        "unbound qualifier",
        "unqualified, no table",
        "unqualified, one table",
        "unqualified, several tables",
        "exists",
        "not exists",
        "in subquery",
        "scalar subquery",
        "depth 3",
        "select *",
        "select 1",
        "count(*)",
        "max(x)",
        "group by having",
        "insert values with subquery",
        "insert select",
        "observable select",
        "rollback",
        "Reads differs from ColumnReads",
    }
)


def constructs(rule) -> set[str]:
    """The constructs of :data:`CONSTRUCTS` that *rule* contains."""
    found: set[str] = set()
    selects = list(_selects(rule))
    for select in selects:
        for ref in select.tables:
            if ref.alias:
                found.add("aliased FROM")
            if ref.name.lower() in TRANSITIONS:
                found.add("transition FROM")
        if select.is_star:
            found.add("select *")
        if [item.expr for item in select.items] == [ast.Literal(1)]:
            found.add("select 1")
        if select.having is not None:
            found.add("group by having")
        for expr in ast.expressions_of_statement(select):
            for node in ast.walk_expression(expr):
                if isinstance(node, ast.FuncCall) and node.star:
                    found.add("count(*)")
                elif isinstance(node, ast.FuncCall) and node.name == "max":
                    found.add("max(x)")
    if any(_depth(select) >= 3 for select in selects):
        found.add("depth 3")
    expressions = [rule.condition] if rule.condition is not None else []
    for action in rule.actions:
        expressions.extend(ast.expressions_of_statement(action))
        if isinstance(action, (ast.Update, ast.Delete)) and action.alias:
            found.add(f"aliased {type(action).__name__.upper()}")
        if isinstance(action, ast.Insert) and action.query is not None:
            found.add("insert select")
        if isinstance(action, ast.Insert) and any(
            isinstance(node, ast.ScalarSubquery)
            for row in action.rows
            for value in row
            for node in ast.walk_expression(value)
        ):
            found.add("insert values with subquery")
        if isinstance(action, ast.Select):
            found.add("observable select")
        if isinstance(action, ast.Rollback):
            found.add("rollback")
    for select in selects:
        expressions.extend(ast.expressions_of_statement(select))
    for expr in expressions:
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.Exists):
                found.add("not exists" if node.negated else "exists")
            elif isinstance(node, ast.InSubquery):
                found.add("in subquery")
            elif isinstance(node, ast.ScalarSubquery):
                found.add("scalar subquery")
    for ref, scope in reference_reads._column_refs_with_scopes(rule):
        if ref.table:
            qualifier = ref.table.lower()
            if qualifier in TRANSITIONS:
                found.add("transition qualifier")
            if scope.resolve_qualified(qualifier) is None:
                found.add("unbound qualifier")
            elif qualifier not in scope.bindings:
                found.add("correlated reference")
        else:
            matches = len(set(scope.candidate_tables(ref.column, rule)))
            found.add(
                "unqualified, "
                + ("no table", "one table", "several tables")[min(matches, 2)]
            )
    if reference_reads._compute_reads(
        rule
    ) != reference_reads.compute_column_reads(rule):
        found.add("Reads differs from ColumnReads")
    return found


def _selects(rule):
    if rule.condition is not None:
        yield from ast.subqueries_of(rule.condition)
    for action in rule.actions:
        yield from ast.selects_of_statement(action)


def _depth(select: ast.Select) -> int:
    """1 for a select with no subqueries, plus the deepest one's."""
    nested = [
        node.subquery
        for expr in ast.expressions_of_statement(select)
        for node in ast.walk_expression(expr)
        if isinstance(node, (ast.Exists, ast.InSubquery, ast.ScalarSubquery))
    ]
    return 1 + max((_depth(inner) for inner in nested), default=0)


def test_generator_reaches_every_construct():
    """The equivalence above only means something if the programs hit
    the constructs where the folds could part from the walkers."""
    reached: set[str] = set()
    for case in range(CASES):
        for ruleset in generated_programs(case):
            for rule in ruleset:
                reached |= constructs(rule)
    assert CONSTRUCTS - reached == set()
