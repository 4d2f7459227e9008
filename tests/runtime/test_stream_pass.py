"""The explorer's stream pass, pinned to brute-force path enumeration.

``explore()`` derives path counts and observable streams from the
deduplicated acyclic graph, merging every execution order that reaches
the same state. The reference below is the enumeration it replaced:
every complete path replayed on live processor forks, no merging at
all. Both must report the same ``observable_streams``,
``paths_to_final()`` and ``streams_truncated``.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from tests.property.test_runtime_properties import CONFIG, build_instance
from tests.seeding import derive_seed

from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import schema_from_spec

#: generated programs with select actions and few priorities, so most
#: instances have several paths and many have several streams
OBSERVABLE_CONFIG = dataclasses.replace(
    CONFIG, n_rules=8, p_observable=0.6, p_priority=0.05
)


def enumerate_paths(processor, max_paths):
    """Replay every complete path on live forks, depth first.

    Returns ``(streams, paths, truncated)``: the distinct observable
    streams of the paths enumerated, how many were enumerated (at most
    *max_paths*), and whether the budget cut the enumeration short. The
    last eligible rule is followed first.
    """
    streams = set()
    paths = 0
    stack = [processor.fork()]
    while stack:
        current = stack.pop()
        eligible = current.eligible_rules()
        if not eligible:
            streams.add(tuple(current.observables))
            paths += 1
            if paths >= max_paths:
                # Landing exactly on the last path is not a cut-off.
                return streams, paths, bool(stack)
            continue
        for rule_name in eligible:
            child = current.fork()
            child.consider(rule_name, eligible=eligible)
            stack.append(child)
    return streams, paths, False


def assert_matches_reference(processor, max_paths=2_000):
    graph = explore(processor, max_states=300, max_depth=60, max_paths=max_paths)
    if graph.truncated or graph.has_cycle:
        return None
    streams, paths, truncated = enumerate_paths(processor, max_paths)
    assert graph.paths_to_final() == paths
    assert graph.streams_truncated == truncated
    # Under a cut-off both keep the streams of the same first paths.
    assert graph.observable_streams == streams
    return graph


def processor_for(source, statements, rows=()):
    schema = schema_from_spec(
        {"t": ["id", "v"], "u": ["id", "v"], "log_t": ["id", "v"]}
    )
    database = Database(schema)
    if rows:
        database.load("t", list(rows))
    processor = RuleProcessor(RuleSet.parse(source, schema), database)
    for statement in statements:
        processor.execute_user(statement)
    return processor


@hypothesis_seed(derive_seed("stream-pass", "test_generated_programs_match_enumeration"))
@given(seed=st.integers(0, 5_000))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_generated_programs_match_enumeration(seed):
    ruleset, database, statements = build_instance(seed, OBSERVABLE_CONFIG)
    processor = RuleProcessor(ruleset, database.copy())
    for statement in statements:
        processor.execute_user(statement)
    assert_matches_reference(processor)


def test_generated_sweep_is_not_vacuous_and_pins_the_budget_edge():
    """The generated inputs really exercise merging with several
    streams, and every one with two or more paths has its budget edge
    checked."""
    several_streams = merged = budget_edges = 0
    for seed in range(40):
        ruleset, database, statements = build_instance(seed, OBSERVABLE_CONFIG)
        processor = RuleProcessor(ruleset, database.copy())
        for statement in statements:
            processor.execute_user(statement)
        graph = assert_matches_reference(processor)
        if graph is None:
            continue
        if len(graph.observable_streams) > 1:
            several_streams += 1
            merged += graph.states_deduped > 0
        if graph.paths_to_final() >= 2:
            assert_budget_edge(processor, graph)
            budget_edges += 1
    assert several_streams >= 3
    assert merged >= 1
    assert budget_edges >= 3


WATCHERS = """
create rule watch_a on t when inserted
then select id from t; insert into u values (1, 1)

create rule watch_b on t when inserted
then select v from t; insert into u values (2, 2)

create rule watch_u on u when inserted then select * from u
"""

GUARDED = """
create rule guard on t when inserted
if exists (select * from inserted where v < 0)
then rollback 'negative v'

create rule watch on t when inserted then select id from t

create rule log_rule on t when inserted
then insert into log_t (select id, v from inserted)
"""


class TestHandWrittenPrograms:
    def test_selects_after_merged_states(self):
        # watch_a and watch_b commute on the database, so their orders
        # merge, yet each order emits its own stream, and watch_u's
        # payload depends on how many u rows exist when it runs.
        graph = assert_matches_reference(
            processor_for(WATCHERS, ["insert into t values (5, 6)"])
        )
        assert graph.states_deduped >= 1
        assert len(graph.observable_streams) > 2

    @pytest.mark.parametrize("value", [-5, 5])
    def test_rollback_programs(self, value):
        graph = assert_matches_reference(
            processor_for(
                GUARDED, [f"insert into t values (2, {value})"], rows=[(1, 10)]
            )
        )
        kinds = {
            tuple(action.kind for action in stream)
            for stream in graph.observable_streams
        }
        if value < 0:
            assert all(stream[-1] == "rollback" for stream in kinds)
            assert ("rollback",) in kinds  # guard first: nothing else ran
        else:
            assert kinds == {("select",)}

    def test_prior_observables_prefix_every_stream(self):
        processor = processor_for(WATCHERS, ["insert into t values (5, 6)"])
        processor.run()
        prior = tuple(processor.observables)
        assert prior
        processor.execute_user("insert into t values (7, 8)")
        graph = assert_matches_reference(processor)
        assert all(stream[: len(prior)] == prior for stream in graph.observable_streams)

    def test_initial_state_already_final(self):
        processor = processor_for(WATCHERS, [])
        graph = assert_matches_reference(processor)
        assert graph.paths_to_final() == 1
        assert graph.observable_streams == {()}


def assert_budget_edge(processor, full):
    """*full* is the uncut graph: a budget of exactly its path count is
    not a cut-off, one less is."""
    paths = full.paths_to_final()
    assert paths >= 2 and not full.streams_truncated

    exact = assert_matches_reference(processor, max_paths=paths)
    assert not exact.streams_truncated
    assert exact.paths_to_final() == paths
    assert exact.observable_streams == full.observable_streams

    cut = assert_matches_reference(processor, max_paths=paths - 1)
    assert cut.streams_truncated
    assert cut.paths_to_final() == paths - 1
    assert len(cut.observable_streams) <= paths - 1


class TestPathBudget:
    def test_hand_written(self):
        processor = processor_for(WATCHERS, ["insert into t values (5, 6)"])
        assert_budget_edge(processor, explore(processor))

    def test_cut_far_below_the_path_count(self):
        # Five unordered watchers: 5! = 120 orders, each its own stream.
        source = "\n".join(
            f"create rule w{i} on t when inserted then select id + {i} from t"
            for i in range(5)
        )
        processor = processor_for(source, ["insert into t values (1, 1)"])
        graph = assert_matches_reference(processor, max_paths=50)
        assert graph.streams_truncated
        assert len(graph.observable_streams) == 50
