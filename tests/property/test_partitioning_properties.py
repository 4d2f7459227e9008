"""Properties of rule-set partitioning over generated rule sets.

``partition_rules`` claims to return the connected components of the
"shares a table or is priority-ordered" relation over rules. These
properties check it against an independently written reference
(breadth-first search over an explicit adjacency built from the public
``DerivedDefinitions`` API), plus the structural invariants the
incremental analyzer's per-partition cache relies on: the result is a
disjoint cover, cross-partition rules share no tables and no ordering,
and merging any two partitions would be unnecessary. The two extremes —
all-disjoint rule sets splitting into singletons and a common-table
rule set collapsing into one partition — are pinned directly.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from tests.seeding import derive_seed

from repro.analysis.derived import DerivedDefinitions
from repro.analysis.partitioning import partition_rules
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.workloads.generator import (
    GeneratorConfig,
    LayeredRuleSetGenerator,
    RandomRuleSetGenerator,
)

CONFIG = GeneratorConfig(n_tables=3, n_columns=2, n_rules=6, p_priority=0.3)


def any_ruleset(seed: int) -> RuleSet:
    layered = seed % 2
    seed = derive_seed("partitioning-ruleset", seed)
    if layered:
        return LayeredRuleSetGenerator(CONFIG, seed=seed).generate()
    return RandomRuleSetGenerator(CONFIG, seed=seed).generate()


def touched_tables(definitions: DerivedDefinitions, rule: str) -> set[str]:
    tables = {event.table for event in definitions.triggered_by(rule)}
    tables |= {event.table for event in definitions.performs(rule)}
    tables |= {table for table, __ in definitions.reads(rule)}
    return tables


def related(definitions, priorities, first: str, second: str) -> bool:
    if touched_tables(definitions, first) & touched_tables(
        definitions, second
    ):
        return True
    return priorities.are_ordered(first, second)


def reference_components(ruleset: RuleSet) -> set[frozenset[str]]:
    """Connected components by plain breadth-first search."""
    definitions = DerivedDefinitions(ruleset)
    names = list(definitions.rule_names)
    remaining = set(names)
    components = set()
    while remaining:
        start = remaining.pop()
        component = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for other in list(remaining):
                if related(definitions, ruleset.priorities, node, other):
                    remaining.remove(other)
                    component.add(other)
                    frontier.append(other)
        components.add(frozenset(component))
    return components


@hypothesis_seed(derive_seed("partitioning-properties", "matches_reference"))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_partitions_match_reference_components(seed):
    ruleset = any_ruleset(seed)
    partitions = partition_rules(
        DerivedDefinitions(ruleset), ruleset.priorities
    )
    assert set(partitions) == reference_components(ruleset)


@hypothesis_seed(derive_seed("partitioning-properties", "disjoint_cover"))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_partitions_are_a_sorted_disjoint_cover(seed):
    ruleset = any_ruleset(seed)
    definitions = DerivedDefinitions(ruleset)
    partitions = partition_rules(definitions, ruleset.priorities)
    flattened = [name for group in partitions for name in group]
    assert len(flattened) == len(set(flattened))
    assert set(flattened) == set(definitions.rule_names)
    assert [min(group) for group in partitions] == sorted(
        min(group) for group in partitions
    )


@hypothesis_seed(derive_seed("partitioning-properties", "cross_unrelated"))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cross_partition_rules_are_unrelated(seed):
    """No shared table and no ordering across partition boundaries —
    the soundness half (partitions never split a related pair)."""
    ruleset = any_ruleset(seed)
    definitions = DerivedDefinitions(ruleset)
    partitions = partition_rules(definitions, ruleset.priorities)
    for i, group in enumerate(partitions):
        for other in partitions[i + 1 :]:
            for first in group:
                for second in other:
                    assert not related(
                        definitions, ruleset.priorities, first, second
                    )


@hypothesis_seed(derive_seed("partitioning-properties", "no_finer_split"))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_partitions_are_internally_connected(seed):
    """Every partition is one connected component, not a union of
    smaller ones — the maximality half (no over-coarse merging)."""
    ruleset = any_ruleset(seed)
    definitions = DerivedDefinitions(ruleset)
    partitions = partition_rules(definitions, ruleset.priorities)
    for group in partitions:
        members = set(group)
        start = next(iter(members))
        reached = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for other in members - reached:
                if related(definitions, ruleset.priorities, node, other):
                    reached.add(other)
                    frontier.append(other)
        assert reached == members


def parse(source: str, tables: dict) -> RuleSet:
    return RuleSet.parse(source, schema_from_spec(tables))


class TestExtremes:
    def test_disjoint_tables_yield_singletons(self):
        ruleset = parse(
            """
            create rule a on ta when inserted
            then insert into ta values (1)

            create rule b on tb when inserted
            then insert into tb values (1)

            create rule c on tc when inserted
            then insert into tc values (1)
            """,
            {"ta": ["x"], "tb": ["x"], "tc": ["x"]},
        )
        partitions = partition_rules(
            DerivedDefinitions(ruleset), ruleset.priorities
        )
        assert partitions == [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]

    def test_common_table_collapses_to_one_partition(self):
        ruleset = parse(
            """
            create rule a on hub when inserted
            then insert into ta values (1)

            create rule b on hub when inserted
            then insert into tb values (1)

            create rule c on hub when inserted
            then insert into tc values (1)
            """,
            {"hub": ["x"], "ta": ["x"], "tb": ["x"], "tc": ["x"]},
        )
        partitions = partition_rules(
            DerivedDefinitions(ruleset), ruleset.priorities
        )
        assert partitions == [frozenset({"a", "b", "c"})]

    def test_priority_edge_joins_table_disjoint_rules(self):
        ruleset = parse(
            """
            create rule a on ta when inserted
            then insert into ta values (1)

            create rule b on tb when inserted
            then insert into tb values (1)
            """,
            {"ta": ["x"], "tb": ["x"]},
        )
        ruleset.priorities.add_ordering("a", "b")
        partitions = partition_rules(
            DerivedDefinitions(ruleset), ruleset.priorities
        )
        assert partitions == [frozenset({"a", "b"})]
