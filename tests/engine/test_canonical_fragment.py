"""Hash-once canonical fragments.

``TableData.canonical()`` and ``TableNetEffect.canonical()`` return a
:class:`CanonicalFragment`: a tuple that computes its hash on first use
and keeps it. These tests pin what makes that safe — the hash and
equality are the plain tuple's, a fragment lives exactly as long as the
contents it describes, and the cached hash never leaves the process.
"""

import copy
import pickle

import pytest

from repro.engine.database import Database
from repro.engine.storage import TableData
from repro.engine.values import CanonicalFragment
from repro.rules.ruleset import RuleSet
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec
from repro.transitions.delta import Primitive
from repro.transitions.net_effect import NetEffect

ROWS = [(3, 30), (1, 10), (2, None)]
SORTED = ((1, 10), (2, None), (3, 30))


def table_with(rows):
    table = TableData("t", 2)
    for tid, values in enumerate(rows, start=1):
        table.insert(tid, values)
    return table


@pytest.fixture
def schema():
    return schema_from_spec({"t": ["id", "v"], "u": ["id", "v"]})


class TestPlainTupleSemantics:
    def test_table_fragment_hashes_and_compares_as_its_rows(self):
        fragment = table_with(ROWS).canonical()
        plain = SORTED
        assert tuple(fragment) == plain
        assert type(fragment) is CanonicalFragment
        assert fragment == plain and plain == fragment
        assert hash(fragment) == hash(plain)
        assert hash(fragment) == hash(plain)  # the cached value
        assert {plain: 1}[fragment] == 1 and {fragment: 1}[plain] == 1

    def test_net_effect_fragment_hashes_and_compares_as_a_tuple(self):
        net = NetEffect.from_primitives(
            [
                Primitive(0, "I", "t", 7, None, (1, "x")),
                Primitive(1, "U", "t", 2, (2, "a"), (2, "b")),
            ]
        )
        fragment = net.table("t").canonical()
        plain = ("t", ((1, "x"),), (), (((2, "a"), (2, "b")),))
        assert type(fragment) is CanonicalFragment
        assert fragment == plain
        assert hash(fragment) == hash(plain)

    def test_database_canonical_compares_with_plain_tuples(self, schema):
        database = Database(schema)
        database.load("t", ROWS)
        plain = tuple(
            (name, tuple(tuple(row) for row in rows))
            for name, rows in database.canonical()
        )
        assert database.canonical() == plain
        assert hash(database.canonical()) == hash(plain)


class TestLifetime:
    def test_unwritten_table_keeps_the_same_fragment_across_forks(self, schema):
        database = Database(schema)
        database.load("t", ROWS)
        database.load("u", [(1, 1)])
        before = database.table("t").canonical()
        fork = database.copy()
        fork.table("u").insert(99, (2, 2))
        assert fork.table("t").canonical() is before
        assert database.table("t").canonical() is before
        assert fork.table("u").canonical() is not database.table("u").canonical()

    def test_write_returns_a_new_fragment_with_a_fresh_hash(self):
        table = table_with(ROWS)
        old = table.canonical()
        old_hash = hash(old)  # cached on the old fragment
        table.update(1, (3, 33))
        new = table.canonical()
        assert new is not old
        assert new == ((1, 10), (2, None), (3, 33))
        assert hash(new) == hash(((1, 10), (2, None), (3, 33)))
        assert hash(new) != old_hash
        assert old == SORTED  # untouched

    def test_processor_fork_shares_pending_fragments(self, schema):
        ruleset = RuleSet.parse(
            "create rule r on t when inserted then insert into u values (0, 0)",
            schema,
        )
        processor = RuleProcessor(ruleset, Database(schema))
        processor.execute_user("insert into t values (1, 1)")
        parent_key = processor.state_key()
        fork_key = processor.fork().state_key()
        assert fork_key == parent_key
        ((__, parent_pending),) = parent_key[2]
        ((__, fork_pending),) = fork_key[2]
        assert fork_pending is parent_pending


class TestMerging:
    SOURCE = """
    create rule a on t when inserted then insert into u values (1, 1)
    create rule b on t when inserted then insert into u values (2, 2)
    """

    def test_different_writes_same_contents_give_equal_keys(self, schema):
        processor = RuleProcessor(RuleSet.parse(self.SOURCE, schema), Database(schema))
        processor.execute_user("insert into t values (0, 0)")
        ab, ba = processor.fork(), processor.fork()
        for fork, order in ((ab, "ab"), (ba, "ba")):
            for rule in order:
                fork.consider(rule)
        # Different tids, different fragment objects, same contents.
        assert ab.database.table("u").items() != ba.database.table("u").items()
        fragment_ab = ab.database.table("u").canonical()
        fragment_ba = ba.database.table("u").canonical()
        assert fragment_ab is not fragment_ba
        assert ab.state_key() == ba.state_key()
        assert hash(ab.state_key()) == hash(ba.state_key())

    def test_explore_merges_them(self, schema):
        processor = RuleProcessor(RuleSet.parse(self.SOURCE, schema), Database(schema))
        processor.execute_user("insert into t values (0, 0)")
        graph = explore(processor)
        assert graph.states_deduped >= 1
        assert len(graph.final_states) == 1
        assert graph.paths_to_final() == 2
        # Both orders' edges point at the one stored key object.
        (final,) = graph.final_states
        into_final = [
            child
            for successors in graph.edges.values()
            for __, child in successors
            if child == final
        ]
        assert len(into_final) == 2
        assert all(child is final for child in into_final)


class TestNeverSerialized:
    def test_pickle_and_copies_drop_the_cached_hash(self):
        fragment = table_with(ROWS).canonical()
        hash(fragment)
        assert "_hash" in vars(fragment)
        for clone in (
            pickle.loads(pickle.dumps(fragment)),
            copy.copy(fragment),
            copy.deepcopy(fragment),
        ):
            assert type(clone) is CanonicalFragment
            assert clone == fragment
            assert "_hash" not in vars(clone)
            assert hash(clone) == hash(fragment)
