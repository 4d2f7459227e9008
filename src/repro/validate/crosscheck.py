"""Differential cross-check: declarative semantics vs every execution mode.

:mod:`repro.semantics` computes what a rule program *means* — the
per-stratum fixpoint of Flesca/Greco's declarative reading, with no
operational machinery. This module checks that every way the repository
can *run* the program lands where the meaning says it should:

* **execution modes** — the cross product of condition matching
  (``naive``/``planned``/``rete``) and persistence (``memory``/
  ``durable``/``server``), nine configurations in all;
* **the differential contract** — when the program's unique-final
  guarantee is certified (statically, or by a workload that is
  confluent by construction), the declarative outcome must **equal**
  every mode's final database; otherwise the declarative outcome must
  be **contained** in the ``explore()``-reachable final set (it is one
  reachable execution order by construction), checked whenever
  exploration is feasible;
* **mode agreement** — all operational modes implement one
  deterministic semantics (same default strategy, match-mode
  equivalence), so their finals must agree pairwise regardless of
  certification;
* **durability** — the database recovered from a durable mode's WAL
  must equal that mode's live final.

On divergence the report carries a **minimized counterexample**: the
user transition greedily shrunk (delta-debugging style) to the smallest
statement subset that still diverges, plus both firing sequences.

Every mode result also carries the per-run delta of the global
:data:`repro.engine.rete.STATS` singleton (via
:meth:`~repro.stats.StatsBase.delta_since`), so a driver sweeping many
modes reports each mode's own counters instead of an accumulated blur —
and a rete leg whose counters are all zero is detectable as a
mis-wired config rather than a quiet success.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field

from repro.config import ExecutionConfig, require_positive
from repro.engine import rete as rete_module
from repro.engine.database import Database
from repro.errors import RuleProcessingLimitExceeded
from repro.lang.parser import parse_statement
from repro.runtime.exec_graph import explore_ruleset
from repro.runtime.processor import RuleProcessor
from repro.rules.ruleset import RuleSet
from repro.semantics import (
    DeclarativeOutcome,
    ProgramClassification,
    classify_program,
    declarative_outcome,
)

__all__ = [
    "ALL_MODES",
    "QUICK_MODES",
    "CrosscheckCase",
    "CrosscheckReport",
    "ModeResult",
    "crosscheck",
    "crosscheck_case",
    "build_case",
    "case_names",
    "parse_modes",
]

#: every execution mode: (matching, persistence) — the full product
ALL_MODES: dict[str, tuple[str, str]] = {
    f"{matching}-{persistence}": (matching, persistence)
    for matching in ("naive", "planned", "rete")
    for persistence in ("memory", "durable", "server")
}

#: one representative per axis — the CI-smoke subset
QUICK_MODES: tuple[str, ...] = (
    "planned-memory",
    "naive-memory",
    "rete-memory",
    "planned-durable",
    "planned-server",
)


def parse_modes(spec: str | None) -> tuple[str, ...]:
    """Resolve a ``--modes`` spec: ``all``, ``quick``, or a comma list."""
    if spec is None or spec == "all":
        return tuple(ALL_MODES)
    if spec == "quick":
        return QUICK_MODES
    modes = tuple(part.strip() for part in spec.split(",") if part.strip())
    for mode in modes:
        if mode not in ALL_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; modes are "
                f"{', '.join(ALL_MODES)} (or 'all'/'quick')"
            )
    return modes


def _digest(canonical: tuple | None) -> str | None:
    if canonical is None:
        return None
    return hashlib.sha1(repr(canonical).encode()).hexdigest()[:12]


@dataclass
class ModeResult:
    """One execution mode's run of the case's transition."""

    mode: str
    status: str  # "quiescent" | "rolled_back" | "exhausted"
    final: tuple | None
    seconds: float
    #: per-run counter deltas: "processor"/"rete" (+"server")
    stats: dict = field(default_factory=dict)
    #: durable modes: does Database.recover(wal) equal the live final?
    recovered_matches: bool | None = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "final_digest": _digest(self.final),
            "seconds": round(self.seconds, 6),
            "stats": self.stats,
            "recovered_matches": self.recovered_matches,
        }


@dataclass
class CrosscheckCase:
    """A workload instance prepared for the differential harness."""

    name: str
    ruleset: RuleSet
    database: Database
    statements: list
    #: construction-level confluence certificate (None = run the static
    #: analysis); see ProgramClassification
    certified_confluent: bool | None = None
    #: explore() the instance (only feasible for small ones)
    explore: bool = False
    max_steps: int = 100_000

    def statement_sources(self) -> list[str]:
        return [
            statement if isinstance(statement, str) else str(statement)
            for statement in self.statements
        ]


@dataclass
class CrosscheckReport:
    """Everything one differential run established."""

    case: str
    classification: ProgramClassification
    declarative: DeclarativeOutcome
    declarative_seconds: float
    modes: list[ModeResult]
    #: divergences, each {"kind", "mode", "detail"}
    divergences: list[dict] = field(default_factory=list)
    #: explore() summary when run: distinct finals, containment verdict
    exploration: dict | None = None
    #: minimized statement subset + firing sequences (first divergence)
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "classification": self.classification.label,
            "contract": (
                "equality" if self.classification.confluent else "containment"
            ),
            "declarative": {
                "status": self.declarative.status,
                "firings": self.declarative.firings,
                "refutations": self.declarative.refutations,
                "stratum_fixpoints": list(self.declarative.stratum_fixpoints),
                "final_digest": _digest(self.declarative.final),
                "seconds": round(self.declarative_seconds, 6),
            },
            "modes": [mode.to_dict() for mode in self.modes],
            "exploration": self.exploration,
            "divergences": self.divergences,
            "counterexample": self.counterexample,
            "passed": self.passed,
        }


def _run_mode(
    case: CrosscheckCase, mode: str, wal_dir: str
) -> ModeResult:
    """Run one execution mode on a fresh copy of the case's database."""
    matching, persistence = ALL_MODES[mode]
    database = case.database.copy()
    config = ExecutionConfig(matching=matching)
    before_rete = rete_module.STATS.snapshot()
    started = time.perf_counter()

    status = "quiescent"
    recovered_matches = None
    stats: dict = {}
    if persistence == "server":
        from repro.runtime.server import RuleServer

        server = RuleServer(case.ruleset, database, config=config)
        try:
            outcome = server.run_transaction(list(case.statements))
            if outcome.rolled_back:
                status = "rolled_back"
        except RuleProcessingLimitExceeded:
            status = "exhausted"
        finally:
            server.close()
        stats["server"] = server.stats.to_dict()
        final = None if status == "exhausted" else database.canonical()
    else:
        wal_path = None
        if persistence == "durable":
            wal_path = os.path.join(wal_dir, f"{mode}.wal")
            config = config.with_options(wal=wal_path)
        processor = RuleProcessor(
            case.ruleset, database, max_steps=case.max_steps, config=config
        )
        try:
            for statement in case.statements:
                processor.execute_user(statement)
            result = processor.run()
            status = result.outcome
            processor.commit()
        except RuleProcessingLimitExceeded:
            status = "exhausted"
        finally:
            processor.close()
        stats["processor"] = processor.stats.to_dict()
        final = None if status == "exhausted" else database.canonical()
        if wal_path is not None and final is not None:
            recovered = Database.recover(wal_path, schema=case.ruleset.schema)
            recovered_matches = recovered.canonical() == final

    seconds = time.perf_counter() - started
    stats["rete"] = rete_module.STATS.delta_since(before_rete)
    return ModeResult(
        mode=mode,
        status=status,
        final=final,
        seconds=seconds,
        stats=stats,
        recovered_matches=recovered_matches,
    )


def _explore_case(case: CrosscheckCase, declarative: DeclarativeOutcome,
                  max_states: int, max_depth: int, max_paths: int) -> dict:
    """Enumerate reachable finals and test containment/uniqueness."""
    graph = explore_ruleset(
        case.ruleset,
        case.database.copy(),
        case.statements,
        max_states=max_states,
        max_depth=max_depth,
        max_paths=max_paths,
    )
    finals = set(graph.final_databases.values())
    return {
        "states": graph.state_count,
        "distinct_finals": len(finals),
        "truncated": graph.truncated,
        "has_cycle": graph.has_cycle,
        "contains_declarative": (
            None
            if graph.truncated or declarative.final is None
            else declarative.final in finals
        ),
    }


def crosscheck_case(
    case: CrosscheckCase,
    modes: tuple[str, ...] | None = None,
    *,
    minimize: bool = True,
    explore_states: int = 2_000,
    explore_depth: int = 200,
    explore_paths: int = 20_000,
) -> CrosscheckReport:
    """Run the differential contract for one case across *modes*."""
    modes = tuple(modes) if modes is not None else tuple(ALL_MODES)
    classification = classify_program(
        case.ruleset, certified_confluent=case.certified_confluent
    )
    started = time.perf_counter()
    declarative = declarative_outcome(
        case.ruleset,
        case.database,
        case.statements,
        strata=classification.strata,
        max_firings=case.max_steps,
    )
    declarative_seconds = time.perf_counter() - started

    results: list[ModeResult] = []
    with tempfile.TemporaryDirectory() as wal_dir:
        for mode in modes:
            results.append(_run_mode(case, mode, wal_dir))

    divergences: list[dict] = []

    # 1. Mode agreement: one deterministic operational semantics.
    finished = [r for r in results if r.final is not None]
    if finished:
        reference = finished[0]
        for result in finished[1:]:
            if result.final != reference.final:
                divergences.append(
                    {
                        "kind": "mode-disagreement",
                        "mode": result.mode,
                        "detail": (
                            f"final differs from {reference.mode} "
                            f"({_digest(result.final)} vs "
                            f"{_digest(reference.final)})"
                        ),
                    }
                )

    # 2. Durability: recovered state equals the live final.
    for result in results:
        if result.recovered_matches is False:
            divergences.append(
                {
                    "kind": "recovery-mismatch",
                    "mode": result.mode,
                    "detail": "Database.recover(wal) differs from live final",
                }
            )

    # 3. The declarative contract.
    if declarative.status == "nonterminating":
        # Nothing to assert beyond consistency: operational modes should
        # also fail to quiesce within a comparable budget.
        for result in results:
            if result.status == "quiescent":
                divergences.append(
                    {
                        "kind": "termination-disagreement",
                        "mode": result.mode,
                        "detail": (
                            "mode quiesced but the declarative iteration "
                            f"exhausted {case.max_steps} firings"
                        ),
                    }
                )
    elif classification.confluent:
        for result in results:
            if result.final is None:
                divergences.append(
                    {
                        "kind": "termination-disagreement",
                        "mode": result.mode,
                        "detail": (
                            f"declarative outcome is {declarative.status} "
                            "but the mode exhausted its step budget"
                        ),
                    }
                )
            elif result.final != declarative.final:
                divergences.append(
                    {
                        "kind": "declarative-mismatch",
                        "mode": result.mode,
                        "detail": (
                            f"certified-confluent program: mode final "
                            f"{_digest(result.final)} != declarative "
                            f"{_digest(declarative.final)}"
                        ),
                    }
                )

    # 4. Containment (and, when certified, uniqueness) over explore().
    exploration = None
    if case.explore:
        exploration = _explore_case(
            case, declarative, explore_states, explore_depth, explore_paths
        )
        if exploration["contains_declarative"] is False:
            divergences.append(
                {
                    "kind": "containment-violation",
                    "mode": "explore",
                    "detail": (
                        "declarative final is not among the "
                        f"{exploration['distinct_finals']} reachable finals"
                    ),
                }
            )
        if (
            classification.confluent
            and not exploration["truncated"]
            and exploration["distinct_finals"] > 1
        ):
            divergences.append(
                {
                    "kind": "confluence-certificate-violation",
                    "mode": "explore",
                    "detail": (
                        f"{exploration['distinct_finals']} distinct reachable "
                        "finals despite a confluence certificate"
                    ),
                }
            )

    counterexample = None
    if divergences and minimize:
        counterexample = _minimize(case, divergences[0], modes)

    return CrosscheckReport(
        case=case.name,
        classification=classification,
        declarative=declarative,
        declarative_seconds=declarative_seconds,
        modes=results,
        divergences=divergences,
        exploration=exploration,
        counterexample=counterexample,
    )


def crosscheck(
    ruleset: RuleSet,
    database: Database,
    statements,
    *,
    name: str = "adhoc",
    certified_confluent: bool | None = None,
    modes: tuple[str, ...] | None = None,
    explore: bool = False,
    **kwargs,
) -> CrosscheckReport:
    """Differential-check one (ruleset, database, transition) triple."""
    case = CrosscheckCase(
        name=name,
        ruleset=ruleset,
        database=database,
        statements=list(statements),
        certified_confluent=certified_confluent,
        explore=explore,
    )
    return crosscheck_case(case, modes, **kwargs)


# ----------------------------------------------------------------------
# Counterexample minimization
# ----------------------------------------------------------------------


def _diverges(case: CrosscheckCase, statements: list, mode: str) -> bool:
    """Does *mode* still diverge from the declarative outcome on the
    reduced statement list? (Used only while shrinking a counterexample,
    so equality is the only question — containment violations shrink
    against the explore-backed check instead.)"""
    trial = CrosscheckCase(
        name=case.name,
        ruleset=case.ruleset,
        database=case.database,
        statements=statements,
        certified_confluent=True,  # equality is the property being shrunk
        explore=False,
        max_steps=case.max_steps,
    )
    report = crosscheck_case(trial, (mode,), minimize=False)
    return not report.passed


def _minimize(
    case: CrosscheckCase, divergence: dict, modes: tuple[str, ...]
) -> dict | None:
    """Greedy one-at-a-time shrink of the user transition.

    Keeps the divergent mode's disagreement reproducible while dropping
    every statement whose removal preserves it; quadratic in the
    statement count, which is fine for the tens-of-statements
    transitions the workloads use (the 10⁶-row cases drive a single
    multi-row INSERT, which is already minimal).
    """
    mode = divergence.get("mode")
    if mode not in ALL_MODES:
        mode = next(iter(modes), "planned-memory")
    statements = list(case.statements)
    if not _diverges(case, statements, mode):
        # Not reproducible through the equality check (e.g. an
        # explore-only containment divergence): report unminimized.
        return {
            "mode": mode,
            "statements": case.statement_sources(),
            "minimized": False,
        }
    changed = True
    while changed and len(statements) > 1:
        changed = False
        for index in range(len(statements)):
            candidate = statements[:index] + statements[index + 1 :]
            if _diverges(case, candidate, mode):
                statements = candidate
                changed = True
                break

    trial = CrosscheckCase(
        name=case.name,
        ruleset=case.ruleset,
        database=case.database,
        statements=statements,
        certified_confluent=True,
        explore=False,
        max_steps=case.max_steps,
    )
    report = crosscheck_case(trial, (mode,), minimize=False)
    mode_result = report.modes[0]
    return {
        "mode": mode,
        "minimized": True,
        "statements": [
            s if isinstance(s, str) else str(s) for s in statements
        ],
        "declarative_firing_sequence": list(
            report.declarative.firing_sequence
        ),
        "declarative_final_digest": _digest(report.declarative.final),
        "mode_status": mode_result.status,
        "mode_final_digest": _digest(mode_result.final),
    }


# ----------------------------------------------------------------------
# The workload registry (shared by the CLI, the bench gate, and tests)
# ----------------------------------------------------------------------

_ZOO_EXCLUDED = ("storm", "spin")  # deliberately non-quiescent zoo rules


def case_names() -> tuple[str, ...]:
    """The registered workload names `build_case` accepts."""
    return (
        "powernet",
        "powernet_scaled",
        "termination_zoo",
        "streaming",
        "partitioned",
        "iot",
        "fraud",
    )


def build_case(
    name: str, *, rows: int | None = None, seed: int = 0
) -> CrosscheckCase:
    """Materialize a registered workload as a cross-checkable case.

    *rows* scales the instance (each workload's own default — 10⁶ for
    ``iot``/``fraud`` — applies when None); small fixed-size cases
    (``powernet``, ``termination_zoo``) ignore it and enable
    ``explore()`` so the containment leg of the contract runs too.
    """
    require_positive(rows=rows)
    if name == "powernet":
        from repro.workloads.powernet import power_network_workload

        workload = power_network_workload(rows if rows else 3)
        return CrosscheckCase(
            name=name,
            ruleset=workload.ruleset,
            database=workload.database,
            statements=workload.overload_transition(),
            certified_confluent=None,
            explore=(rows or 3) <= 4,
        )
    if name == "powernet_scaled":
        from repro.workloads.powernet import scaled_power_network_workload

        workload = scaled_power_network_workload(rows if rows else 100_000)
        return CrosscheckCase(
            name=name,
            ruleset=workload.ruleset,
            database=workload.database,
            statements=workload.overload_transition(),
            certified_confluent=None,
        )
    if name == "termination_zoo":
        return _termination_zoo_case()
    if name == "streaming":
        from repro.workloads.streaming import streaming_workload

        workload = streaming_workload(rows=rows if rows else 10_000, seed=seed)
        # One ingestion transaction: the first batch (plus its hot-row
        # bump). Per-batch the cascade is confluent by construction —
        # alert rules fire once per (stream, region), escalation drains
        # its own counter deterministically.
        return CrosscheckCase(
            name=name,
            ruleset=workload.ruleset,
            database=workload.database,
            statements=list(workload.batches[0].statements),
            certified_confluent=True,
        )
    if name == "partitioned":
        from repro.workloads.partitioned import partitioned_workload

        workload = partitioned_workload(rows=rows if rows else 20_000, seed=seed)
        return CrosscheckCase(
            name=name,
            ruleset=workload.ruleset,
            database=workload.database,
            statements=workload.drain_transition(),
            certified_confluent=True,
        )
    if name == "iot":
        from repro.workloads.iot import iot_workload

        workload = (
            iot_workload(rows=rows, seed=seed) if rows else iot_workload(seed=seed)
        )
        return CrosscheckCase(
            name=name,
            ruleset=workload.ruleset,
            database=workload.database,
            statements=workload.ingest_transition(),
            certified_confluent=workload.certified_confluent,
        )
    if name == "fraud":
        from repro.workloads.fraud import fraud_workload

        workload = (
            fraud_workload(rows=rows, seed=seed)
            if rows
            else fraud_workload(seed=seed)
        )
        return CrosscheckCase(
            name=name,
            ruleset=workload.ruleset,
            database=workload.database,
            statements=workload.ingest_transition(),
            certified_confluent=workload.certified_confluent,
        )
    raise ValueError(
        f"unknown workload {name!r}; choose from {', '.join(case_names())}"
    )


def _termination_zoo_case() -> CrosscheckCase:
    """The examples/ zoo minus its deliberately non-quiescent rules."""
    # Lazy import: the CLI imports this module (lazily) for the
    # crosscheck subcommand; loading its file helpers here at import
    # time would close the cycle eagerly.
    from repro.cli import load_schema

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    examples = os.path.join(os.path.dirname(src_dir), "examples")
    schema = load_schema(os.path.join(examples, "termination_zoo.schema"))
    with open(os.path.join(examples, "termination_zoo.rules")) as handle:
        rules_source = handle.read()
    full = RuleSet.parse(rules_source, schema)
    ruleset = full.subset(
        [name for name in full.names if name not in _ZOO_EXCLUDED]
    )

    database = Database(schema)
    database.load("dd", [(0,), (0,), (1,)])
    database.load("md", [(5,), (12,)])
    database.load("cd", [(1,)])
    statements = [
        "insert into t1 values (1)",
        "insert into sd values (3)",
        "insert into cd values (9)",
        "update md set level = level + 1 where level < 10",
        "delete from dd where k = 1",
    ]
    return CrosscheckCase(
        name="termination_zoo",
        ruleset=ruleset,
        database=database,
        statements=statements,
        certified_confluent=None,
        explore=True,
    )
