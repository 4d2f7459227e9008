"""The execution configuration for runtime sessions.

:class:`ExecutionConfig` is the one way to choose execution options: a
frozen value object accepted (as ``config=``) by
:class:`~repro.runtime.processor.RuleProcessor`,
:class:`~repro.runtime.server.RuleServer`,
:class:`~repro.engine.expressions.Evaluator`,
:func:`~repro.engine.query.execute_select`,
:func:`~repro.engine.dml.execute_statement`, and the CLI. Every entry
point falls back to :data:`DEFAULT_CONFIG` when none is passed.

Fields:

* ``matching`` — how rule conditions are matched at consideration time:
  ``"planned"`` (compiled predicates over the planned executor, the
  default), ``"rete"`` (the incremental discrimination network of
  :mod:`repro.engine.rete`, with planned fallback for unsupported
  conditions), or ``"naive"`` (the tree-walking reference evaluator);
* ``planner`` — route statement/subquery SELECTs through the planned
  executor (:mod:`repro.engine.plan`) rather than the naive
  cross-product reference path (``matching="naive", planner=False`` is
  the naive path throughout);
* ``wal`` — write-ahead logging: a path string or an open
  ``WalWriter``; ``None`` (the default) runs in memory only.

Out-of-range values raise :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

#: the condition-matching modes `ExecutionConfig.matching` accepts
MATCHING_MODES = ("rete", "planned", "naive")


@dataclass(frozen=True)
class ExecutionConfig:
    """Immutable execution options for one runtime session."""

    matching: str = "planned"
    planner: bool = True
    #: WAL path (str) or an open WalWriter; None runs in memory only
    wal: object = None

    def __post_init__(self) -> None:
        if self.matching not in MATCHING_MODES:
            raise ConfigError(
                f"matching must be one of {', '.join(MATCHING_MODES)}; "
                f"got {self.matching!r}"
            )

    def with_options(self, **changes) -> "ExecutionConfig":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    @property
    def wants_wal(self) -> bool:
        """True when this config asks for durability (a WAL is set)."""
        return self.wal is not None


#: the default configuration every entry point falls back to
DEFAULT_CONFIG = ExecutionConfig()


#: the isolation levels `ServerOptions.isolation` accepts
ISOLATION_MODES = ("serializable", "snapshot")

#: the conflict-detection granularities `ServerOptions.granularity` accepts
GRANULARITY_MODES = ("column", "table")


@dataclass(frozen=True)
class ServerOptions:
    """Concurrency options for a :class:`~repro.runtime.server.RuleServer`.

    Orthogonal to :class:`ExecutionConfig` (which still governs how each
    session's own rule cascade executes — matching mode, planner,
    durability of the *server's* log):

    * ``isolation`` — what first-committer-wins validation checks:
      ``"serializable"`` (the default) validates the session's reads
      *and* writes against commits since its snapshot, which is what
      makes the committed history replayable serially in commit order
      (the determinism oracle); ``"snapshot"`` validates writes only —
      classical snapshot isolation, admitting read skew but fewer
      aborts;
    * ``granularity`` — footprint resolution: ``"column"`` uses the
      attribute-level dataflow of PR 3 (insert/delete epochs per table,
      update epochs per column), ``"table"`` falls back to the coarse
      per-table touch index (`DeltaLog.last_write`);
    * ``group_commit`` — funnel durable commits through the
      :class:`~repro.engine.wal.GroupCommitWal` coalescer (``False``
      syncs every commit by itself on the same code path);
    * ``max_delay`` / ``max_batch`` — the coalescer's bounds: how long a
      commit may wait for company, and how much company it may keep;
    * ``max_retries`` — how many times :meth:`RuleServer.run_transaction`
      reopens a session after a :class:`~repro.errors.ConflictError`
      before giving up.
    """

    isolation: str = "serializable"
    granularity: str = "column"
    group_commit: bool = True
    max_delay: float = 0.002
    max_batch: int = 8
    max_retries: int = 16

    def __post_init__(self) -> None:
        if self.isolation not in ISOLATION_MODES:
            raise ConfigError(
                f"isolation must be one of {', '.join(ISOLATION_MODES)}; "
                f"got {self.isolation!r}"
            )
        if self.granularity not in GRANULARITY_MODES:
            raise ConfigError(
                f"granularity must be one of {', '.join(GRANULARITY_MODES)}; "
                f"got {self.granularity!r}"
            )
        if not isinstance(self.max_batch, int) or self.max_batch < 1:
            raise ConfigError(
                f"max_batch must be a positive int; got {self.max_batch!r}"
            )
        if self.max_delay < 0:
            raise ConfigError(
                f"max_delay must be >= 0; got {self.max_delay!r}"
            )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be a non-negative int; "
                f"got {self.max_retries!r}"
            )

    def with_options(self, **changes) -> "ServerOptions":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return replace(self, **changes)


#: the default server options
DEFAULT_SERVER_OPTIONS = ServerOptions()


def require_positive(**counts) -> None:
    """Raise :class:`ConfigError` for a count set below 1; None (the
    caller's default) passes."""
    for name, value in counts.items():
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be a positive int; got {value!r}")

