"""``RuleSet.choose`` against the pairwise definition of ``Choose``.

Section 3: a triggered rule is eligible iff no *other* triggered rule
has precedence over it. ``RuleSet.choose`` computes this as
``{r ∈ TR : above(r) ∩ TR = ∅}`` over the closure ``PriorityRelation``
maintains, incrementally on ``add_priority`` and rebuilt from scratch
on ``remove_priority``. These sweeps draw random partial orders, edit
them both ways, and compare every answer with the pairwise definition
evaluated over reachability in the test's own copy of the direct
edges. Orders and triggered sets come from ``tests.seeding``; replay a
failure with the base seed its report prints.
"""

import random

import pytest

from repro.errors import RuleError
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from tests.seeding import derive_seed

SCHEMA = schema_from_spec({"t": ["id", "v"]})


def reaches(edges: set[tuple[str, str]], start: str, goal: str) -> bool:
    """Is *goal* below *start* through the direct edges (higher, lower)?"""
    stack, seen = [start], {start}
    while stack:
        node = stack.pop()
        for higher, lower in edges:
            if higher == node and lower not in seen:
                if lower == goal:
                    return True
                seen.add(lower)
                stack.append(lower)
    return False


def pairwise_choose(names, edges, triggered) -> tuple[str, ...]:
    """The definition, one pair at a time, in definition order."""
    return tuple(
        name
        for name in names
        if name in triggered
        and not any(
            reaches(edges, other, name) for other in triggered if other != name
        )
    )


def random_order(rng: random.Random, names: list[str], p: float):
    """Direct edges of a random partial order: each pair consistent with
    a random linear extension is an edge with probability *p*."""
    extension = rng.sample(names, len(names))
    return {
        (higher, lower)
        for i, higher in enumerate(extension)
        for lower in extension[i + 1 :]
        if rng.random() < p
    }


def build(names: list[str], source_edges: set[tuple[str, str]]) -> RuleSet:
    """A rule set whose precedes clauses state *source_edges*."""
    rules = []
    for name in names:
        lowers = sorted(lower for higher, lower in source_edges if higher == name)
        clause = f" precedes {', '.join(lowers)}" if lowers else ""
        rules.append(
            f"create rule {name} on t when inserted "
            f"then delete from t where id < 0{clause}"
        )
    return RuleSet.parse("\n".join(rules), SCHEMA)


def check_all_subsets(rng, ruleset, names, edges, samples=25):
    for __ in range(samples):
        triggered = {name for name in names if rng.random() < 0.5}
        order = rng.sample(sorted(triggered), len(triggered))
        assert ruleset.choose(order) == pairwise_choose(
            names, edges, triggered
        ), (sorted(edges), sorted(triggered))
    assert ruleset.choose(names) == pairwise_choose(names, edges, set(names))
    assert ruleset.choose(()) == ()


@pytest.mark.parametrize("case", range(12))
def test_choose_matches_pairwise_definition_under_edits(case):
    rng = random.Random(derive_seed("choose-pairwise", case))
    names = [f"r{i}" for i in range(rng.randint(3, 10))]
    edges = random_order(rng, names, rng.choice([0.1, 0.3, 0.6]))
    # Some edges come from the rule text, the rest are added later.
    source_edges = {edge for edge in edges if rng.random() < 0.5}
    ruleset = build(names, source_edges)
    for higher, lower in sorted(edges - source_edges):
        ruleset.add_priority(higher, lower)
    check_all_subsets(rng, ruleset, names, edges)

    # remove_priority rebuilds the closure: choose must read the new one.
    for edge in rng.sample(sorted(edges), len(edges) // 2):
        assert ruleset.remove_priority(*edge)
        edges.discard(edge)
        check_all_subsets(rng, ruleset, names, edges, samples=5)

    # Incremental additions on top of a rebuilt closure.
    extension = random_order(rng, names, 0.2)
    for higher, lower in sorted(extension - edges):
        if reaches(edges, lower, higher):
            continue  # would close a cycle
        ruleset.add_priority(higher, lower)
        edges.add((higher, lower))
        check_all_subsets(rng, ruleset, names, edges, samples=5)


def test_choose_accepts_any_case_and_rejects_unknown_rules():
    ruleset = build(["a", "b", "c"], {("a", "b")})
    assert ruleset.choose(["B", "A", "c"]) == ("a", "c")
    with pytest.raises(RuleError, match="ghost"):
        ruleset.choose(["a", "ghost"])
