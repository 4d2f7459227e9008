"""EXISTS stops at its first qualifying row on the planned path.

An ``EXISTS`` reads one row of its subquery, so the planned executor
asks for one (:func:`repro.engine.plan.execute_planned`'s ``limit``):
it stops enumerating at the first matched context, and the outermost
source filters its rows as the enumeration asks for them. These tests
hold that path to the full reference evaluation
(``ExecutionConfig(matching="naive", planner=False)``; crosscheck's
``naive-*`` modes keep ``planner=True``, so their subqueries already run
planned and cannot be the reference) over seeded NULL-bearing
instances, wherever an EXISTS can stand: SELECT WHERE clauses, DML
WHERE and SET, and rule conditions. They also pin the work the early
exit saves (``rows_scanned``), the shapes it must not cut short
(GROUP BY/HAVING and aggregates), and the one divergence it adds: a
predicate that would raise on a row after the first qualifying one
raises only on the reference path.
"""

import random

import pytest

from repro.config import ExecutionConfig
from repro.engine import plan
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.query import DatabaseProvider, OverlayProvider, execute_select
from repro.errors import EvaluationError
from repro.lang.parser import parse_statement
from repro.rules.ruleset import RuleSet
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec
from tests.engine.test_planner_equivalence import (
    _random_instance,
    _random_predicate,
)
from tests.seeding import derive_seed

REFERENCE = ExecutionConfig(matching="naive", planner=False)
PLANNED = ExecutionConfig()

TABLES = {"r": ["a", "b"], "s": ["c", "d"], "t": ["e", "f"]}
#: the columns each binding name of the generated queries sees
SCOPES = {**TABLES, "x": TABLES["r"], "i": ["a", "b"]}


def _instance(seed_label, seed):
    """The seeded random instance for *seed_label* and *seed*."""
    return _random_instance(
        random.Random(derive_seed(seed_label, seed)), TABLES
    )


def _predicate(rng, *bindings):
    """Two random conjuncts over *bindings* (FROM names and outer names)."""
    scope = {name: SCOPES[name] for name in bindings}
    return (
        f"{_random_predicate(rng, scope)} and {_random_predicate(rng, scope)}"
    )


def _subqueries(rng):
    """One EXISTS subquery per planner shape, correlated with outer ``r``."""

    def negated():
        return "not " if rng.random() < 0.4 else ""

    return [
        # a single source with pushed filters (and maybe const probes)
        f"{negated()}exists (select * from s where {_predicate(rng, 's')})",
        # a const probe served by s's persistent index
        f"{negated()}exists (select * from s where s.c = {rng.randrange(6)}"
        f" and {_predicate(rng, 's')})",
        # correlated: a probe or filter whose value is the outer row's
        f"{negated()}exists (select * from s where {_predicate(rng, 's', 'r')})",
        # two sources: equi-join, filters and residuals
        f"{negated()}exists (select * from s, t where s.d = t.e and "
        f"{_predicate(rng, 's', 't')})",
        f"{negated()}exists (select * from s, t where "
        f"{_predicate(rng, 's', 't', 'r')})",
        # three sources, one of them the outer table under an alias
        f"{negated()}exists (select * from s, t, r x where s.c = t.e and "
        f"t.f = x.a and {_predicate(rng, 's', 't', 'x')})",
        # nested: the inner EXISTS correlates with the middle and outer rows
        f"{negated()}exists (select * from s where {_predicate(rng, 's')} and "
        f"{negated()}exists (select * from t where t.e = s.d and "
        f"{_predicate(rng, 't', 'r')}))",
        # DISTINCT and non-star items
        f"{negated()}exists (select distinct s.d from s where "
        f"{_predicate(rng, 's', 'r')})",
        f"{negated()}exists (select s.c + s.d, s.c from s where "
        f"{_predicate(rng, 's', 'r')})",
        # the unlimited shapes: grouped, and aggregates (one row always)
        f"{negated()}exists (select s.c from s where {_predicate(rng, 's')} "
        f"group by s.c having count(*) > 1)",
        f"{negated()}exists (select s.d, count(*) from s, t where "
        f"s.c = t.e and {_predicate(rng, 's', 't')} group by s.d)",
        f"{negated()}exists (select count(*) from s where "
        f"{_predicate(rng, 's', 'r')})",
        f"{negated()}exists (select max(s.d) from s where "
        f"{_predicate(rng, 's')})",
    ]


def _assert_select_matches(provider, text):
    select = parse_statement(text)
    reference = execute_select(provider, select, config=REFERENCE)
    planned = execute_select(provider, select, config=PLANNED)
    assert planned.columns == reference.columns, text
    assert planned.rows == reference.rows, text


class TestSelectSweep:
    @pytest.mark.parametrize("seed", range(10))
    def test_where_clause_exists(self, seed):
        rng = random.Random(derive_seed("exists-select", seed))
        provider = DatabaseProvider(_instance("exists-select-instance", seed))
        for subquery in _subqueries(rng):
            _assert_select_matches(
                provider, f"select r.a, r.b from r where {subquery}"
            )
            # EXISTS as a residual beside an outer filter and under OR
            _assert_select_matches(
                provider,
                f"select * from r where r.b is not null and "
                f"({_predicate(rng, 'r')} or {subquery})",
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_overlay_exists(self, seed):
        """Const probes on a transition-table overlay go through a
        transient index; the overlay also joins a base table."""
        rng = random.Random(derive_seed("exists-overlay", seed))
        database = _instance("exists-overlay-instance", seed)
        inserted = [
            (rng.randrange(6), rng.randrange(6)) for __ in range(5)
        ] + [(None, rng.randrange(6))]
        provider = OverlayProvider(
            DatabaseProvider(database), {"inserted": (("a", "b"), inserted)}
        )
        for __ in range(6):
            for subquery in (
                f"exists (select * from inserted i where i.a = "
                f"{rng.randrange(6)} and {_predicate(rng, 'i', 'r')})",
                f"not exists (select * from inserted i where "
                f"i.b = r.a and {_predicate(rng, 'i')})",
                f"exists (select * from inserted i, s where i.a = s.c and "
                f"{_predicate(rng, 'i', 's')})",
            ):
                _assert_select_matches(
                    provider, f"select r.a from r where {subquery}"
                )


def _dml_instance(seed_label, seed):
    """r gains a boolean column so a SET can take an EXISTS."""
    rng = random.Random(derive_seed(seed_label, seed))
    base = _random_instance(rng, TABLES)
    schema = schema_from_spec({**TABLES, "r": ["a", "b", "hit:bool"]})
    database = Database(schema)
    database.load("r", [row + (None,) for row in base.table("r").value_tuples()])
    for name in ("s", "t"):
        database.load(name, base.table(name).value_tuples())
    return database


class TestDmlSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_where_and_set_exists(self, seed):
        rng = random.Random(derive_seed("exists-dml", seed))
        for subquery in _subqueries(rng):
            for statement in (
                f"update r set hit = {subquery}",
                f"update r set b = 0 where {subquery}",
                f"delete from r where {subquery}",
                f"update r x set b = x.a where {subquery.replace('r.', 'x.')}",
            ):
                stmt = parse_statement(statement)
                reference = _dml_instance("exists-dml-instance", seed)
                affected = execute_statement(
                    reference, stmt, config=REFERENCE
                ).affected
                database = _dml_instance("exists-dml-instance", seed)
                result = execute_statement(database, stmt, config=PLANNED)
                assert result.affected == affected, statement
                assert database.canonical() == reference.canonical(), statement


class TestRuleConditionSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_conditions_and_action_wheres(self, seed):
        rng = random.Random(derive_seed("exists-rules", seed))
        rules = f"""
        create rule watch on r when inserted
        if exists (select * from inserted i, s where i.a = s.c and
                   {_predicate(rng, 'i', 's')})
        then update t set f = 1
             where exists (select * from s where s.d = t.e and
                           {_predicate(rng, 's', 't')})

        create rule guard on t when updated(f)
        if not exists (select * from t where t.f = 1 and
                       {_predicate(rng, 't')})
           or exists (select * from s, t where s.c = t.e and
                      {_predicate(rng, 's', 't')})
        then delete from s where not exists
             (select * from t where t.e = s.c and {_predicate(rng, 't')})
        """
        values = ", ".join(
            f"({rng.randrange(6)}, {rng.randrange(6)})" for __ in range(4)
        )
        runs = []
        for config in (REFERENCE, PLANNED, ExecutionConfig(matching="rete")):
            database = _instance("exists-rules-instance", seed)
            ruleset = RuleSet.parse(rules, database.schema)
            processor = RuleProcessor(ruleset, database, config=config)
            processor.execute_user(f"insert into r values {values}")
            result = processor.run()
            runs.append(
                (
                    result.rules_considered,
                    [step.condition_was_true for step in result.steps],
                    processor.database.canonical(),
                )
            )
        assert runs[1] == runs[0], "planned"
        assert runs[2] == runs[0], "rete"


ROWS = 1_000


@pytest.fixture
def thousand():
    """``t`` holds ``(i, i)`` for i < 1,000 in tid order; ``u`` one row."""
    database = Database(schema_from_spec({"t": ["id", "v"], "u": ["id"]}))
    database.load("t", [(i, i) for i in range(ROWS)])
    database.load("u", [(1,)])
    return DatabaseProvider(database)


def _scanned(provider, text):
    before = plan.STATS.rows_scanned
    rows = execute_select(provider, parse_statement(text)).rows
    return rows, plan.STATS.rows_scanned - before


class TestWorkPins:
    def test_first_row_qualifies_scans_one_row(self, thousand):
        rows, scanned = _scanned(
            thousand, "select * from u where exists (select * from t where v >= 0)"
        )
        assert rows == ((1,),)
        assert scanned == 1

    def test_last_row_qualifies_scans_every_row(self, thousand):
        rows, scanned = _scanned(
            thousand,
            f"select * from u where exists (select * from t where v >= {ROWS - 1})",
        )
        assert rows == ((1,),)
        assert scanned == ROWS

    def test_not_exists_without_a_qualifying_row_scans_every_row(
        self, thousand
    ):
        rows, scanned = _scanned(
            thousand,
            f"select * from u where not exists "
            f"(select * from t where v >= {ROWS})",
        )
        assert rows == ((1,),)
        assert scanned == ROWS

    @pytest.mark.parametrize(
        "subquery",
        [
            "select v from t where v >= 0 group by v",
            "select v from t where v >= 0 group by v having count(*) > 0",
            "select count(*) from t where v >= 0",
            "select max(v) from t where v >= 0",
        ],
    )
    def test_grouped_and_aggregate_subqueries_run_in_full(
        self, thousand, subquery
    ):
        rows, scanned = _scanned(
            thousand, f"select * from u where exists ({subquery})"
        )
        assert rows == ((1,),)
        assert scanned == ROWS

    def test_having_sees_every_row_of_its_group(self):
        # Stopping a grouped subquery at its first row would leave the
        # group of 2 with one member, and HAVING would reject it.
        database = Database(schema_from_spec({"t": ["id", "v"], "u": ["id"]}))
        database.load("t", [(1, 1), (2, 2), (3, 2)])
        database.load("u", [(1,)])
        provider = DatabaseProvider(database)
        text = (
            "select * from u where exists (select v from t where v > 0 "
            "group by v having count(*) > 1)"
        )
        for config in (PLANNED, REFERENCE):
            assert execute_select(
                provider, parse_statement(text), config=config
            ).rows == ((1,),)

    def test_the_memo_keeps_the_one_row_a_limited_run_returned(
        self, thousand
    ):
        # A closed EXISTS in a residual runs once for the statement and
        # keeps its one row; the IN beside it keeps its full answer.
        rows, scanned = _scanned(
            thousand,
            "select t.id from t where t.id < 3 and "
            "exists (select * from t x where x.v >= 500) and "
            "t.id in (select x.id from t x where x.v < 2)",
        )
        assert rows == ((0,), (1,))
        # the outer filter, the limited EXISTS, the full IN
        assert scanned == ROWS + 501 + ROWS


class TestDivergence:
    """The early exit never evaluates a conjunct on later rows."""

    SOURCE = "select * from u where exists (select * from t where 10 / v > 1)"

    @pytest.fixture
    def database(self):
        database = Database(schema_from_spec({"t": ["id", "v"], "u": ["id"]}))
        database.load("t", [(1, 2), (2, 0)])
        database.load("u", [(7,)])
        return database

    def test_planned_path_returns_the_row(self, database):
        result = execute_select(
            DatabaseProvider(database),
            parse_statement(self.SOURCE),
            config=PLANNED,
        )
        assert result.rows == ((7,),)

    def test_reference_path_raises(self, database):
        with pytest.raises(EvaluationError, match="division by zero"):
            execute_select(
                DatabaseProvider(database),
                parse_statement(self.SOURCE),
                config=REFERENCE,
            )
