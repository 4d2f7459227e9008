"""Per-pair properties behind the engine's judgment sharing.

:class:`~repro.analysis.engine.AnalysisEngine` judges each rule pair
once and serves every view and precision tier that provably agrees:

* the Obs view widens only the observable rules' definitions, so a pair
  with no observable member has the same Lemma 6.1 reasons in both
  views;
* the precision tiers nest per pair (dataflow-noncommutative ⇒
  column-noncommutative ⇒ table-noncommutative), so
  ``pair_pruning_counts`` judges each non-engine tier only where the
  neighbouring tier leaves the verdict open.

These tests check both facts pair by pair on memo-free analyzers, and
check that the engine's reports equal those of the memo-free reference
paths under every engine setting. Programs come from
``RandomRuleSetGenerator`` and from ``mixed_program``, which adds the
constructs the generator never emits: column-free selects,
unconditional deletes, literal inserts, and discriminated updates.
"""

import json
import random

import pytest

from repro.analysis.analyzer import AnalysisReport, RuleAnalyzer
from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.confluence import ConfluenceAnalyzer
from repro.analysis.derived import DerivedDefinitions, ObsExtendedDefinitions
from repro.analysis.engine import AnalysisEngine
from repro.analysis.observable import ObservableDeterminismAnalyzer
from repro.analysis.partial_confluence import PartialConfluenceAnalyzer
from repro.analysis.termination import TerminationAnalyzer
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import schema_from_spec
from repro.workloads.generator import GeneratorConfig, RandomRuleSetGenerator
from tests.seeding import derive_seed

#: Reference tier settings, coarse to fine.
TIERS = (
    ("table", {"granularity": "table"}),
    ("column", {"granularity": "column"}),
    ("dataflow", {"granularity": "column", "column_dataflow": True}),
)

ENGINE_SETTINGS = {
    "default": {},
    "dataflow": {"column_dataflow": True},
    "table": {"granularity": "table"},
    "refine": {"refine": True},
    "memo-free": {"memoize": False},
}

PROGRAMS = 6


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------


def generated_program(index: int, config: GeneratorConfig | None = None):
    config = config or GeneratorConfig(
        n_tables=4, n_rules=12, p_observable=0.3, p_priority=0.1
    )
    ruleset = RandomRuleSetGenerator(config).generate(
        seed=derive_seed("judgment-sharing-generated", config.n_rules, index)
    )
    return RuleSet.parse(ruleset.source(), ruleset.schema)


MIXED_SCHEMA = {"t0": ["id", "a"], "t1": ["id", "b"], "t2": ["id", "c"]}

CONDITIONS = (
    None,
    "exists (select 1 from {t})",
    "(select count(1) from {t}) > 0",
    "exists (select 1 from inserted)",
    "exists (select {u}.id from {t}, {u})",
    "exists (select * from {t} where {col} > 1)",
)

ACTIONS = (
    "insert into {t} values ({k}, {k})",
    "delete from {t} where {col} = {k}",
    "delete from {t}",
    "update {t} set {col} = {col} + 1 where id = {k}",
    "update {t} set {col} = 0",
    "insert into {t} (select id, {ucol} from {u})",
    "select * from {t}",
    "select id from {t} where exists (select 1 from {u})",
)


def mixed_program(index: int, n_rules: int = 10) -> RuleSet:
    """Random rules over three tables drawing on constructs the
    generator never emits (column-free selects among them)."""
    rng = random.Random(derive_seed("judgment-sharing-mixed", index))
    schema = schema_from_spec(MIXED_SCHEMA)
    tables = sorted(MIXED_SCHEMA)

    def fill(template: str) -> str:
        t, u = rng.sample(tables, 2)
        return template.format(
            t=t,
            u=u,
            col=rng.choice(MIXED_SCHEMA[t]),
            ucol=rng.choice(MIXED_SCHEMA[u]),
            k=rng.randint(1, 3),
        )

    rules = []
    for number in range(n_rules):
        events = ["inserted"] + rng.sample(
            ["deleted", "updated"], rng.randint(0, 2)
        )
        lines = [
            f"create rule r{number} on {rng.choice(tables)}",
            f"when {', '.join(events)}",
        ]
        condition = rng.choice(CONDITIONS)
        if condition is not None:
            lines.append(f"if {fill(condition)}")
        actions = [
            fill(rng.choice(ACTIONS)) for __ in range(rng.randint(1, 2))
        ]
        lines.append("then " + "; ".join(actions))
        earlier = [
            f"r{other}" for other in range(number) if rng.random() < 0.1
        ]
        if earlier:
            lines.append("precedes " + ", ".join(earlier))
        rules.append("\n".join(lines))
    return RuleSet.parse("\n\n".join(rules), schema)


def programs():
    return [
        pytest.param(lambda i=i: generated_program(i), id=f"generated-{i}")
        for i in range(PROGRAMS)
    ] + [
        pytest.param(lambda i=i: mixed_program(i), id=f"mixed-{i}")
        for i in range(PROGRAMS)
    ]


def pairs_of(ruleset: RuleSet) -> list[tuple[str, str]]:
    names = sorted(ruleset.names)
    return [
        (first, second)
        for i, first in enumerate(names)
        for second in names[i + 1 :]
    ]


# ----------------------------------------------------------------------
# Reference paths (memo-free)
# ----------------------------------------------------------------------


def three_pass_pruning_counts(
    definitions: DerivedDefinitions, refine: bool
) -> dict[str, int]:
    """Every tier judged on every pair by its own analyzer."""
    pairs = pairs_of(definitions.ruleset)
    counts = {"total_pairs": len(pairs)}
    for label, settings in TIERS:
        judge = CommutativityAnalyzer(definitions, refine=refine, **settings)
        counts[f"noncommutative_{label}"] = sum(
            1 for pair in pairs if judge.compute_reasons(*pair)
        )
    return counts


def reference_report(
    ruleset: RuleSet, settings: dict, tables: list[list[str]]
) -> AnalysisReport:
    """The report the memo-free analyzers give under *settings*."""
    judge_settings = {
        key: value
        for key, value in settings.items()
        if key in ("granularity", "refine", "column_dataflow")
    }
    definitions = DerivedDefinitions(ruleset)
    commutativity = CommutativityAnalyzer(definitions, **judge_settings)
    termination_analyzer = TerminationAnalyzer(definitions)
    observable = ObservableDeterminismAnalyzer(
        ruleset, termination_analyzer=termination_analyzer
    )
    # The reference analyzer judges the Obs view at the column tier
    # without refinement; judge it with the engine's settings instead.
    observable.commutativity = CommutativityAnalyzer(
        observable.extended, **judge_settings
    )
    partial = {}
    for group in tables:
        analysis = PartialConfluenceAnalyzer(
            definitions,
            ruleset.priorities,
            commutativity,
            termination_analyzer,
        ).analyze(group)
        partial[analysis.tables] = analysis
    return AnalysisReport(
        termination=termination_analyzer.analyze(),
        confluence=ConfluenceAnalyzer(
            definitions, ruleset.priorities, commutativity
        ).analyze(),
        observable_determinism=observable.analyze(),
        partial_confluence=partial,
        stats={
            "pair_pruning": three_pass_pruning_counts(
                definitions, judge_settings.get("refine", False)
            )
        },
    )


def comparable(report: AnalysisReport) -> str:
    """The report without timings and engine bookkeeping counters."""
    data = report.to_dict()
    data.pop("timings")
    data["stats"] = {"pair_pruning": data["stats"]["pair_pruning"]}
    return json.dumps(data)


# ----------------------------------------------------------------------
# Per-pair properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("build", programs())
@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
def test_tiers_nest_per_pair(build, refine):
    ruleset = build()
    definitions = DerivedDefinitions(ruleset)
    judges = [
        CommutativityAnalyzer(definitions, refine=refine, **settings)
        for __, settings in TIERS
    ]
    for first, second in pairs_of(ruleset):
        table, column, dataflow = (
            bool(judge.compute_reasons(first, second)) for judge in judges
        )
        assert not dataflow or column, (first, second)
        assert not column or table, (first, second)


@pytest.mark.parametrize("build", programs())
@pytest.mark.parametrize("tier", [label for label, __ in TIERS])
@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
def test_obs_view_agrees_off_observable_pairs(build, tier, refine):
    ruleset = build()
    settings = dict(TIERS)[tier]
    base = CommutativityAnalyzer(
        DerivedDefinitions(ruleset), refine=refine, **settings
    )
    extended = ObsExtendedDefinitions(ruleset)
    obs = CommutativityAnalyzer(extended, refine=refine, **settings)
    compared = 0
    for first, second in pairs_of(ruleset):
        if {first, second} & extended.extended_rules:
            continue
        assert obs.compute_reasons(first, second) == base.compute_reasons(
            first, second
        )
        compared += 1
    assert compared


@pytest.mark.parametrize("build", programs())
@pytest.mark.parametrize("setting", sorted(ENGINE_SETTINGS))
def test_engine_views_serve_each_views_own_reasons(build, setting):
    # Routed through the shared store, each view still answers with the
    # reasons its own definitions give, observable pairs included.
    ruleset = build()
    options = ENGINE_SETTINGS[setting]
    engine = AnalysisEngine(ruleset, **options)
    RuleAnalyzer(ruleset, engine=engine).analyze()
    judge_settings = {
        "granularity": engine.granularity,
        "refine": engine.refine,
        "column_dataflow": engine.column_dataflow,
    }
    base = CommutativityAnalyzer(DerivedDefinitions(ruleset), **judge_settings)
    obs = CommutativityAnalyzer(
        ObsExtendedDefinitions(ruleset), **judge_settings
    )
    for first, second in pairs_of(ruleset):
        assert engine.commutativity.noncommutativity_reasons(
            first, second
        ) == base.compute_reasons(first, second)
        assert engine.obs_commutativity.noncommutativity_reasons(
            first, second
        ) == obs.compute_reasons(first, second)


# ----------------------------------------------------------------------
# Engine results against the reference paths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("build", programs())
@pytest.mark.parametrize("setting", sorted(ENGINE_SETTINGS))
def test_pair_pruning_counts_match_three_passes(build, setting):
    ruleset = build()
    engine = AnalysisEngine(ruleset, **ENGINE_SETTINGS[setting])
    assert engine.pair_pruning_counts() == three_pass_pruning_counts(
        DerivedDefinitions(ruleset), engine.refine
    )


@pytest.mark.parametrize("build", programs())
@pytest.mark.parametrize("setting", sorted(ENGINE_SETTINGS))
def test_report_matches_memo_free_paths(build, setting):
    ruleset = build()
    options = ENGINE_SETTINGS[setting]
    tables = [[name] for name in ruleset.schema.table_names[:2]]
    engine = AnalysisEngine(ruleset, **options)
    report = RuleAnalyzer(ruleset, engine=engine).analyze(tables=tables)
    assert comparable(report) == comparable(
        reference_report(ruleset, options, tables)
    )
    # A second pass is served from the memos and must not drift.
    assert comparable(
        RuleAnalyzer(ruleset, engine=engine).analyze(tables=tables)
    ) == comparable(report)


def test_parallel_report_matches_memo_free_paths():
    # The shape of the analyze_rules benchmark programs, at 48 rules.
    ruleset = generated_program(
        0,
        GeneratorConfig(
            n_tables=8, n_rules=48, p_observable=0.1, p_priority=0.02
        ),
    )
    engine = AnalysisEngine(ruleset)
    report = RuleAnalyzer(ruleset, engine=engine).analyze()
    assert comparable(report) == comparable(
        reference_report(ruleset, {}, [])
    )


# ----------------------------------------------------------------------
# The Obs view's definitions extend the base view's
# ----------------------------------------------------------------------


@pytest.mark.parametrize("build", programs())
def test_engine_obs_definitions_equal_standalone_ones(build):
    ruleset = build()
    engine = AnalysisEngine(ruleset)
    shared = engine.obs_definitions
    standalone = ObsExtendedDefinitions(ruleset)
    assert shared.extended_rules == standalone.extended_rules
    for name in ruleset.names:
        for definition in (
            "triggered_by",
            "performs",
            "triggers",
            "reads",
            "observable",
            "dataflow",
        ):
            assert getattr(shared, definition)(name) == getattr(
                standalone, definition
            )(name), (name, definition)
    # The extension widened copies: the base view is unchanged.
    base = DerivedDefinitions(ruleset)
    for name in ruleset.names:
        assert engine.definitions.reads(name) == base.reads(name)
        assert engine.definitions.performs(name) == base.performs(name)


@pytest.mark.parametrize("index", range(3))
def test_analyze_resolves_each_rule_once_per_read_set(monkeypatch, index):
    # One Reads walk per rule in the base view and one dataflow walk per
    # rule for the pruning tiers; the Obs view resolves nothing again.
    from repro.analysis import dataflow, derived

    calls = []
    for module in (derived, dataflow):
        resolve = module.resolve_references
        monkeypatch.setattr(
            module,
            "resolve_references",
            lambda rule, resolve=resolve: calls.append(rule) or resolve(rule),
        )
    config = GeneratorConfig(
        n_tables=8, n_rules=40, p_observable=0.1, p_priority=0.02
    )
    ruleset = generated_program(index, config)
    assert any(rule.is_observable for rule in ruleset)
    RuleAnalyzer(ruleset).analyze(termination_mode="stratified")
    assert len(calls) == 2 * len(ruleset.names) == 80
