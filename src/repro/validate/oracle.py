"""Per-instance ground truth via exhaustive execution-graph exploration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.database import Database
from repro.runtime.exec_graph import ExecutionGraph, explore_ruleset
from repro.rules.ruleset import RuleSet


@dataclass
class OracleVerdict:
    """Observed behavior of one concrete instance.

    Each verdict is None when the explored graph cannot decide it
    (:meth:`ExecutionGraph.verdicts`). ``terminates=None`` means
    exploration was truncated before it found a cycle — the instance is
    too large to decide, and soundness checks skip it (conservative
    analyses are allowed to be unverifiable, never wrong).
    """

    terminates: bool | None
    confluent: bool | None
    observably_deterministic: bool | None
    graph: ExecutionGraph

    @property
    def decided(self) -> bool:
        return self.terminates is not None


def oracle_verdict(
    ruleset: RuleSet,
    database: Database,
    user_statements: list,
    max_states: int = 2_000,
    max_depth: int = 200,
    max_paths: int = 20_000,
) -> OracleVerdict:
    """Explore all execution orders of one instance and report verdicts.

    The database is copied; the caller's instance is never mutated.
    """
    graph = explore_ruleset(
        ruleset,
        database.copy(),
        user_statements,
        max_states=max_states,
        max_depth=max_depth,
        max_paths=max_paths,
    )

    terminates, confluent, deterministic = graph.verdicts()
    return OracleVerdict(
        terminates=terminates,
        confluent=confluent,
        observably_deterministic=deterministic,
        graph=graph,
    )


def oracle_partial_confluence(
    ruleset: RuleSet,
    database: Database,
    user_statements: list,
    tables: list[str],
    **kwargs,
) -> bool | None:
    """Ground truth for partial confluence: do all final states agree on
    the projection to *tables*? None if undecidable (truncated/cyclic)."""
    graph = explore_ruleset(
        ruleset, database.copy(), user_statements, **kwargs
    )
    if graph.truncated or graph.has_cycle:
        return None

    projections = set()
    # Re-derive the projected database for each final state by replaying:
    # final_databases holds full canonical dumps; project them.
    wanted = {table.lower() for table in tables}
    for full in graph.final_databases.values():
        projections.add(
            tuple(
                (name, contents) for name, contents in full if name in wanted
            )
        )
    return len(projections) <= 1
