"""Closed subqueries run once per statement on the planned path.

An :class:`~repro.engine.expressions.Evaluator` keeps the rows of each
subquery node it runs and returns them when the same node runs again,
provided the subquery is *closed*: no column reference in it can
resolve to an outer row. These tests count the ``execute_select`` calls
a statement makes, pin the closedness decision on the scoping edge
cases, and check that error behaviour matches the per-row reference
path (``ExecutionConfig(planner=False)``).
"""

import pytest

from repro.config import ExecutionConfig
from repro.engine import query
from repro.engine.database import Database
from repro.engine.dml import execute_statement
from repro.engine.plan import is_closed_subquery
from repro.engine.query import (
    DatabaseProvider,
    OverlayProvider,
    execute_select,
)
from repro.errors import QueryError
from repro.lang import ast
from repro.lang.parser import parse_statement
from repro.schema.catalog import schema_from_spec
from repro.workloads.powernet import scaled_power_network_workload

NODES = 50
SUBQUERY_NODES = (ast.InSubquery, ast.Exists, ast.ScalarSubquery)
REFERENCE = ExecutionConfig(matching="naive", planner=False)
PROPAGATE = (
    "update branch set load = load + 1 "
    "where dst in (select id from node where demand > supply)"
)


@pytest.fixture
def network():
    """A 50-node ring with node 7 overloaded (demand above supply)."""
    database = scaled_power_network_workload(NODES).database
    execute_statement(
        database,
        parse_statement("update node set demand = demand + 3 where id = 7"),
    )
    return database


@pytest.fixture
def select_calls(monkeypatch):
    """Counts the ``execute_select`` calls subqueries make.

    ``Evaluator`` resolves ``execute_select`` through the module on every
    subquery run, so patching the module attribute sees each of them;
    the statement-level SELECT in :mod:`repro.engine.dml` holds its own
    reference and is not counted.
    """
    calls = []
    original = query.execute_select

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(query, "execute_select", counting)
    return calls


def _run(database, source, config=None):
    return execute_statement(database, parse_statement(source), config=config)


class TestSubqueryRuns:
    def test_closed_in_subquery_runs_once(self, network, select_calls):
        reference = network.copy()
        _run(network, PROPAGATE)
        assert len(select_calls) == 1
        del select_calls[:]
        _run(reference, PROPAGATE, config=REFERENCE)
        assert len(select_calls) == NODES
        assert (
            network.table("branch").value_tuples()
            == reference.table("branch").value_tuples()
        )

    def test_correlated_subquery_runs_per_row(self, network, select_calls):
        _run(
            network,
            "update branch set load = load + 1 where dst in "
            "(select id from node where node.id = branch.dst "
            "and demand > supply)",
        )
        assert len(select_calls) == NODES

    def test_closed_scalar_subquery_in_set_list(self, network, select_calls):
        reference = network.copy()
        statement = "update branch set load = (select max(demand) from node)"
        _run(network, statement)
        assert len(select_calls) == 1
        del select_calls[:]
        _run(reference, statement, config=REFERENCE)
        assert len(select_calls) == NODES
        assert {row[3] for row in network.table("branch").value_tuples()} == {5}
        assert (
            network.table("branch").value_tuples()
            == reference.table("branch").value_tuples()
        )

    def test_closed_exists_in_select_residual(self, network, select_calls):
        statement = (
            "select id from branch where load > 0 and "
            "exists (select * from node where demand > supply)"
        )
        planned = _run(network, statement).query_result
        assert len(select_calls) == 1
        del select_calls[:]
        reference = _run(network, statement, config=REFERENCE).query_result
        assert len(select_calls) == NODES
        assert planned == reference
        assert len(planned) == NODES

    def test_open_middle_reuses_its_closed_nested_subquery(
        self, network, select_calls
    ):
        # The middle subquery correlates with the branch row, so it runs
        # once per branch; each middle run keeps the rows of its closed
        # nested subquery across the 49 node rows it checks.
        reference = network.copy()
        statement = (
            "update branch set load = load + 1 where dst in "
            "(select id from node where id <> branch.src and exists "
            "(select * from node n where n.demand > n.supply))"
        )
        _run(network, statement)
        middles = [s for s in select_calls if s.tables[0].alias is None]
        assert len(middles) == NODES
        assert len(select_calls) - len(middles) == NODES
        _run(reference, statement, config=REFERENCE)
        assert (
            network.table("branch").value_tuples()
            == reference.table("branch").value_tuples()
        )


@pytest.fixture
def provider():
    schema = schema_from_spec({"r": ["a", "b"], "s": ["c", "d"]})
    database = Database(schema)
    database.load("r", [(1, 10), (2, 20), (3, None)])
    database.load("s", [(1, 10), (4, 40)])
    return OverlayProvider(
        DatabaseProvider(database), {"inserted": (("id", "b"), [(1, 10)])}
    )


def _subquery(source):
    """The first subquery of *source*'s SELECT items or WHERE clause."""
    select = parse_statement(source)
    exprs = [item.expr for item in select.items] + [select.where]
    for expr in exprs:
        for node in ast.walk_expression(expr):
            if isinstance(node, SUBQUERY_NODES):
                return node.subquery
    raise AssertionError(f"no subquery in {source!r}")


class TestClosedness:
    @pytest.mark.parametrize(
        "source, closed",
        [
            ("select a from r where b in (select d from s)", True),
            # an unqualified reference owned only by the outer query
            ("select a from r where b in (select d from s where c = a)",
             False),
            # a local column shadows the outer one of the same name
            ("select a from r where b in (select b from r x where a > 2)",
             True),
            # a local binding shadows the outer binding of the same name
            ("select a from r where exists (select * from r where r.a > 2)",
             True),
            # correlation through the outer alias only
            ("select x.a from r x where exists "
             "(select * from s where s.c = x.a)", False),
            # the nested subquery references the middle: still closed
            ("select a from r where b in (select d from s where exists "
             "(select * from r y where y.a = s.c))", True),
            ("select a from r where b in (select d from s where exists "
             "(select * from r y where y.a = c))", True),
            # the nested subquery references the outermost query: open
            ("select a from r where b in (select d from s where exists "
             "(select * from s t where t.c = r.a))", False),
            ("select a, (select max(d) from s) from r", True),
            # overlay columns count: 'id' exists only in the overlay
            ("select a from r where a in (select id from inserted)", True),
            # an unknown table is not closed (resolve raises)
            ("select a from r where a in (select id from nosuch)", False),
            # an unknown qualifier resolves outward: open
            ("select a from r where a in (select c from s where q.c = 1)",
             False),
        ],
    )
    def test_closedness_follows_row_context_lookup(
        self, provider, source, closed
    ):
        assert is_closed_subquery(_subquery(source), provider) is closed


def test_kept_rows_are_keyed_by_node_identity(provider):
    # The two subqueries compare equal as ASTs (Literal(1) == Literal(True))
    # but yield values of different types; each keeps its own rows.
    rows = execute_select(
        provider,
        parse_statement(
            "select (select 1 from s where c = 1), "
            "(select true from s where c = 1) from r"
        ),
    ).rows
    assert [[type(value) for value in row] for row in rows] == [[int, bool]] * 3


class TestErrorsMatchReference:
    @pytest.fixture
    def database(self):
        schema = schema_from_spec({"r": ["a", "b"], "s": ["c", "d"]})
        database = Database(schema)
        database.load("r", [(1, 10), (2, 20)])
        database.load("s", [(1, 10), (4, 40)])
        return database

    @pytest.mark.parametrize(
        "source",
        [
            "select a from r where b = (select d from s)",
            "update r set b = (select d from s)",
            "delete from r where b = (select d from s)",
        ],
    )
    def test_two_row_scalar_subquery_raises_on_both_paths(
        self, database, source
    ):
        messages = []
        for config in (REFERENCE, None):
            with pytest.raises(QueryError) as excinfo:
                _run(database.copy(), source, config=config)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "source",
        [
            "select a from r where b = (select d from s)",
            "update r set b = (select d from s)",
            "delete from r where b in (select d from nosuch)",
        ],
    )
    def test_empty_outer_table_never_runs_the_subquery(
        self, database, select_calls, source
    ):
        _run(database, "delete from r")
        for config in (REFERENCE, None):
            result = _run(database, source, config=config)
            assert result.affected == 0
        assert select_calls == []
