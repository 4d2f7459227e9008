"""Canonical order: ``sorted_rows`` against the keyed reference sort.

``values.sorted_rows`` sorts tuples natively when each column holds one
kind of value and falls back to ``row_sort_key`` otherwise. These tests
pin that both paths return exactly ``sorted(rows, key=row_sort_key)``:
the same row objects in the same positions, so a ``1``/``1.0`` or
``0``/``-0.0`` tie keeps the keyed order. The sweeps draw their rows
from ``tests.seeding.derive_seed``; replay a failure with the base seed
its report prints.
"""

import random
import sys

import pytest

from repro.engine import values
from repro.engine.database import Database
from repro.engine.values import row_sort_key, sorted_rows
from repro.errors import EvaluationError
from repro.runtime.observer import ObservableAction
from repro.schema.catalog import schema_from_spec
from repro.transitions.delta import Primitive
from repro.transitions.net_effect import NetEffect
from tests.seeding import derive_seed

NAN = float("nan")

#: column kinds: each draws one value; the mixed ones force the fallback
DRAWS = {
    "int": lambda rng: rng.randint(-3, 3),
    "float": lambda rng: rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0, float("inf")]),
    "int_float": lambda rng: rng.choice([0, -0.0, 0.0, 1, 1.0, 2, 2.5, -1.0]),
    "nan": lambda rng: rng.choice([NAN, float("nan"), 1.0, 0, -0.0]),
    "null": lambda rng: None,
    "null_int": lambda rng: rng.choice([None, 0, 1, 2]),
    "bool": lambda rng: rng.choice([True, False]),
    "bool_int": lambda rng: rng.choice([True, False, 0, 1, 2]),
    "str": lambda rng: rng.choice(["", "a", "ab", "b", "B", "é"]),
    "str_null": lambda rng: rng.choice([None, "a", "b"]),
}

#: the ``_TYPE_RANK`` classes, spelled out independently of the engine
CLASS = {type(None): "null", bool: "bool", int: "number", float: "number", str: "text"}


def keyed_pairs(pairs):
    """The net effect's former sort of updated ``(old, new)`` pairs."""
    return sorted(
        pairs, key=lambda pair: (row_sort_key(pair[0]), row_sort_key(pair[1]))
    )


def draw_rows(rng, kinds, count):
    return [tuple(DRAWS[kind](rng) for kind in kinds) for _ in range(count)]


def one_class_per_column(rows) -> bool:
    return all(len({CLASS[type(v)] for v in column}) == 1 for column in zip(*rows))


def assert_same_order(got, expected):
    """Element by element and type by type: the same row objects."""
    assert [repr(row) for row in got] == [repr(row) for row in expected]
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


@pytest.fixture
def key_calls(monkeypatch):
    """Count ``row_sort_key`` calls, wherever a module bound the name."""
    calls = []
    original = values.row_sort_key

    def counting(row):
        calls.append(row)
        return original(row)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "row_sort_key", None) is original
        ):
            monkeypatch.setattr(module, "row_sort_key", counting)
    return calls


class TestSeededSweep:
    def test_rows_match_the_keyed_sort(self, key_calls):
        native = fallback = 0
        for case in range(300):
            rng = random.Random(derive_seed("canonical-order-rows", case))
            kinds = [rng.choice(sorted(DRAWS)) for _ in range(rng.randint(1, 4))]
            rows = draw_rows(rng, kinds, rng.choice([0, 1, 2, 5, 20, 60]))
            expected = sorted(rows, key=row_sort_key)
            key_calls.clear()
            assert_same_order(sorted_rows(rows), expected)
            if one_class_per_column(rows):
                native += 1
                assert key_calls == []
            else:
                fallback += 1
                assert len(key_calls) == len(rows)
        # both paths are exercised under any base seed
        assert native > 30 and fallback > 30

    def test_pairs_match_the_former_pair_sort(self):
        for case in range(150):
            rng = random.Random(derive_seed("canonical-order-pairs", case))
            kinds = [rng.choice(sorted(DRAWS)) for _ in range(rng.randint(1, 3))]
            count = rng.choice([0, 1, 2, 5, 20, 60])
            pairs = list(
                zip(draw_rows(rng, kinds, count), draw_rows(rng, kinds, count))
            )
            assert_same_order(sorted_rows(pairs, pairs=True), keyed_pairs(pairs))


class TestColumns:
    @pytest.mark.parametrize(
        "rows, native",
        [
            pytest.param(
                [(1,), (1.0,), (0,), (-0.0,), (0.0,), (1,)], True, id="int_float"
            ),
            pytest.param([(None, 2), (None, 1), (None, 2)], True, id="all_null"),
            pytest.param([(2,), (None,), (1,), (None,)], False, id="null_beside_int"),
            pytest.param([(1,), (True,), (0,), (False,)], False, id="bool_beside_int"),
            pytest.param([("b",), ("a",), ("",), ("B",)], True, id="str"),
            pytest.param(
                [(NAN,), (1.0,), (float("nan"),), (NAN,), (0.5,)], True, id="nan"
            ),
            pytest.param([(3, "x", None)], True, id="single_row"),
            pytest.param([], True, id="empty"),
            pytest.param([(1, 2), (1,), (0, 5)], False, id="mixed_width"),
        ],
    )
    def test_column(self, rows, native, key_calls):
        assert_same_order(sorted_rows(rows), sorted(rows, key=row_sort_key))
        assert len(key_calls) == (0 if native else len(rows))

    def test_ties_keep_the_input_order(self):
        rows = [(0,), (-0.0,), (0.0,), (1.0,), (1,)]
        got = sorted_rows(rows)
        assert [repr(row) for row in got] == [
            "(0,)", "(-0.0,)", "(0.0,)", "(1.0,)", "(1,)"
        ]


class IntFlag(int):
    """An int subclass: not a supported SQL value type."""


class TestUnsupportedTypes:
    @pytest.mark.parametrize(
        "rows",
        [
            [(1, b"x")],
            [(1, object()), (2, object())],
            [(IntFlag(1),), (2,)],
            [((1, 2),)],
        ],
        ids=["bytes_single_row", "object", "int_subclass", "tuple_value"],
    )
    def test_same_error_on_both_paths(self, rows):
        with pytest.raises(EvaluationError) as reference:
            sorted(rows, key=row_sort_key)
        with pytest.raises(EvaluationError) as got:
            sorted_rows(rows)
        assert str(got.value) == str(reference.value)

    def test_same_error_for_pairs(self):
        pairs = [((1,), (b"x",)), ((2,), (3,))]
        with pytest.raises(EvaluationError) as reference:
            keyed_pairs(pairs)
        with pytest.raises(EvaluationError) as got:
            sorted_rows(pairs, pairs=True)
        assert str(got.value) == str(reference.value)


class TestCallSites:
    def test_net_effect_canonical_equals_the_keyed_formula(self):
        for case in range(60):
            rng = random.Random(derive_seed("canonical-order-net-effect", case))
            kinds = [rng.choice(sorted(DRAWS)) for _ in range(rng.randint(1, 3))]
            primitives = []
            live: dict[int, tuple] = {}
            for seq in range(rng.randint(0, 40)):
                tid = rng.randint(1, 12)
                (row,) = draw_rows(rng, kinds, 1)
                if tid not in live:
                    primitives.append(Primitive(seq, "I", "t", tid, None, row))
                    live[tid] = row
                elif rng.random() < 0.3:
                    old = live.pop(tid)
                    primitives.append(Primitive(seq, "D", "t", tid, old, None))
                else:
                    primitives.append(Primitive(seq, "U", "t", tid, live[tid], row))
                    live[tid] = row
            effect = NetEffect.from_primitives(primitives).table("t")
            got = effect.canonical()
            assert got[0] == "t"
            inserted, deleted = effect.inserted.values(), effect.deleted.values()
            assert_same_order(got[1], sorted(inserted, key=row_sort_key))
            assert_same_order(got[2], sorted(deleted, key=row_sort_key))
            assert_same_order(got[3], keyed_pairs(effect.updated.values()))

    def test_observable_select_equals_the_keyed_formula(self):
        for case in range(60):
            rng = random.Random(derive_seed("canonical-order-select", case))
            kinds = [rng.choice(sorted(DRAWS)) for _ in range(rng.randint(1, 3))]
            rows = draw_rows(rng, kinds, rng.randint(0, 30))
            payload = ObservableAction.select("r", rows).payload
            assert type(payload) is tuple
            assert_same_order(payload, sorted(rows, key=row_sort_key))


class TestKeyCallGuard:
    """``Database.canonical()`` keys only the tables that need the key."""

    @pytest.fixture
    def database(self):
        schema = schema_from_spec(
            {"t": ["id", "name:string", "v:float"], "u": ["id", "w"]}
        )
        database = Database(schema)
        database.load("t", [(3, "c", 1.5), (1, "a", 2), (2, "b", -0.0)])
        return database

    def test_null_free_tables_sort_without_key_calls(self, database, key_calls):
        database.load("u", [(2, 20), (1, 30)])
        canonical = dict(database.canonical())
        assert canonical["t"] == ((1, "a", 2), (2, "b", -0.0), (3, "c", 1.5))
        assert canonical["u"] == ((1, 30), (2, 20))
        assert key_calls == []

    def test_null_beside_ints_uses_the_keyed_sort(self, database, key_calls):
        database.load("u", [(2, 20), (1, None), (3, 10)])
        canonical = dict(database.canonical())
        assert len(key_calls) == 3
        assert set(key_calls) == {(2, 20), (1, None), (3, 10)}
        assert canonical["u"] == ((1, None), (2, 20), (3, 10))
