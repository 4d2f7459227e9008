"""Cross-cutting runtime properties over generated rule sets.

These tie the pieces together: any concrete run the processor can
produce must be a path of the explored execution graph, forks must not
share state, and exploration must be deterministic.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from tests.seeding import derive_seed

from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.runtime.strategies import RandomStrategy
from repro.validate.oracle import oracle_verdict
from repro.workloads.generator import (
    GeneratorConfig,
    LayeredRuleSetGenerator,
    RandomInstanceGenerator,
)

CONFIG = GeneratorConfig(
    n_tables=3,
    n_columns=2,
    n_rules=4,
    p_priority=0.3,
    rows_per_table=2,
    statements_per_transition=1,
)


def build_instance(seed: int, config: GeneratorConfig = CONFIG):
    # Hypothesis draws *seed*; mixing in the suite base seed means a
    # different --base-seed explores genuinely different workloads.
    seed = derive_seed("runtime-properties", seed)
    ruleset = LayeredRuleSetGenerator(config, seed=seed).generate()
    generator = RandomInstanceGenerator(config)
    database = generator.generate_database(ruleset.schema, seed=seed)
    statements = generator.generate_transition(ruleset.schema, seed=seed)
    return ruleset, database, statements


@hypothesis_seed(derive_seed("runtime-properties", "test_any_run_lands_in_an_oracle_final_state"))
@given(seed=st.integers(0, 5_000), strategy_seed=st.integers(0, 100))
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_any_run_lands_in_an_oracle_final_state(seed, strategy_seed):
    """Every concrete execution (any choice strategy) must end in a
    database the exhaustive explorer also reached."""
    ruleset, database, statements = build_instance(seed)
    verdict = oracle_verdict(
        ruleset, database, statements, max_states=300, max_depth=60
    )
    if not verdict.decided:
        return

    processor = RuleProcessor(
        ruleset, database.copy(), strategy=RandomStrategy(strategy_seed)
    )
    for statement in statements:
        processor.execute_user(statement)
    processor.run()
    assert processor.database.canonical() in set(
        verdict.graph.final_databases.values()
    )


@hypothesis_seed(derive_seed("runtime-properties", "test_exploration_is_deterministic"))
@given(seed=st.integers(0, 5_000))
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_exploration_is_deterministic(seed):
    ruleset, database, statements = build_instance(seed)
    first = oracle_verdict(
        ruleset, database, statements, max_states=200, max_depth=50
    )
    second = oracle_verdict(
        ruleset, database, statements, max_states=200, max_depth=50
    )
    assert first.terminates == second.terminates
    assert set(first.graph.final_databases.values()) == set(
        second.graph.final_databases.values()
    )
    assert first.graph.observable_streams == second.graph.observable_streams


@hypothesis_seed(derive_seed("runtime-properties", "test_fork_isolation"))
@given(seed=st.integers(0, 5_000))
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_fork_isolation(seed):
    """A fork's mutations never leak back into the original processor."""
    ruleset, database, statements = build_instance(seed)
    processor = RuleProcessor(ruleset, database.copy())
    for statement in statements:
        processor.execute_user(statement)

    key_before = processor.state_key()
    eligible = processor.eligible_rules()
    for rule in eligible:
        fork = processor.fork()
        fork.consider(rule)
    assert processor.state_key() == key_before
    assert processor.eligible_rules() == eligible


@hypothesis_seed(derive_seed("runtime-properties", "test_explorer_never_mutates_input"))
@given(seed=st.integers(0, 5_000))
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_explorer_never_mutates_input(seed):
    ruleset, database, statements = build_instance(seed)
    processor = RuleProcessor(ruleset, database.copy())
    for statement in statements:
        processor.execute_user(statement)
    key_before = processor.state_key()
    explore(processor, max_states=150, max_depth=40)
    assert processor.state_key() == key_before


@hypothesis_seed(derive_seed("runtime-properties", "test_refined_commutativity_diamonds_hold"))
@given(seed=st.integers(0, 3_000))
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_refined_commutativity_diamonds_hold(seed):
    """Pairs the *refined* analyzer judges commutative satisfy the
    Figure 1 diamond at runtime — the refinement stays sound."""
    import random

    from repro.analysis.commutativity import CommutativityAnalyzer
    from repro.analysis.derived import DerivedDefinitions
    from repro.engine.database import Database
    from repro.rules.ruleset import RuleSet
    from repro.schema.catalog import schema_from_spec

    rng = random.Random(seed)
    schema = schema_from_spec({"src": ["id"], "data": ["id", "v"]})
    rules = []
    for index in range(3):
        kind = rng.choice(["feeder", "guard", "pin"])
        if kind == "feeder":
            value = rng.choice([1, 2, 500])
            rules.append(
                f"create rule r{index} on src when inserted "
                f"then insert into data values ({index}, {value})"
            )
        elif kind == "guard":
            rules.append(
                f"create rule r{index} on src when inserted "
                f"then delete from data where v > 100"
            )
        else:
            pin = rng.choice([1, 2])
            rules.append(
                f"create rule r{index} on src when inserted "
                f"then update data set v = {rng.randint(0, 9)} "
                f"where id = {pin}"
            )
    ruleset = RuleSet.parse("\n\n".join(rules), schema)
    refined = CommutativityAnalyzer(
        DerivedDefinitions(ruleset), refine=True
    )

    database = Database(schema)
    database.load("data", [(1, 0), (2, 0), (9, 500)])
    base = RuleProcessor(ruleset, database)
    base.execute_user("insert into src values (1)")

    eligible = base.eligible_rules()
    for i, first in enumerate(eligible):
        for second in eligible[i + 1 :]:
            if not refined.commute(first, second):
                continue
            keys = []
            for order in ((first, second), (second, first)):
                fork = base.fork()
                complete = True
                for rule in order:
                    if rule not in fork.eligible_rules():
                        complete = False
                        break
                    fork.consider(rule)
                keys.append(fork.paper_state_key() if complete else None)
            if None not in keys:
                assert keys[0] == keys[1], (first, second, rules)
