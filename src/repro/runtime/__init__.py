"""Rule-processing runtime: the Starburst execution semantics of Section 2.

* :mod:`repro.runtime.processor` — the rule processor: per-rule
  consideration markers over a shared delta log, composite-transition
  triggering, ``Choose`` eligibility, rollback, observable actions.
* :mod:`repro.runtime.strategies` — pluggable policies for picking one
  rule when several are eligible (the source of nondeterminism the
  paper's confluence/determinism analyses are about).
* :mod:`repro.runtime.exec_graph` — the execution-graph explorer of
  Section 4: exhaustively enumerates all choice orders, yielding the
  ground truth ("oracle") for termination, confluence and observable
  determinism on concrete instances.
* :mod:`repro.runtime.server` — the concurrent multi-session server:
  snapshot-isolation MVCC over copy-on-write forks with
  first-committer-wins validation and a group-commit WAL.
"""

from repro.runtime.observer import ObservableAction
from repro.runtime.processor import ConsiderationOutcome, ProcessingResult, RuleProcessor
from repro.runtime.server import (
    CommitReceipt,
    RuleServer,
    ServerStats,
    Session,
    TransactionOutcome,
    serial_replay,
)
from repro.runtime.strategies import (
    FirstEligibleStrategy,
    RandomStrategy,
    ScriptedStrategy,
)
from repro.runtime.exec_graph import ExecutionGraph, explore

__all__ = [
    "ObservableAction",
    "CommitReceipt",
    "RuleServer",
    "ServerStats",
    "Session",
    "TransactionOutcome",
    "serial_replay",
    "ConsiderationOutcome",
    "ProcessingResult",
    "RuleProcessor",
    "FirstEligibleStrategy",
    "RandomStrategy",
    "ScriptedStrategy",
    "ExecutionGraph",
    "explore",
]
