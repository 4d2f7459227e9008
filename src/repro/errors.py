"""Exception hierarchy for the production-rule reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class. Sub-hierarchies mirror the major
subsystems: language processing, schema/catalog management, query and DML
execution, rule definition, rule processing, and static analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class LanguageError(ReproError):
    """Base class for tokenizer and parser errors."""


class TokenizeError(LanguageError):
    """Raised when the tokenizer encounters an invalid character sequence."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LanguageError):
    """Raised when the parser cannot derive a valid statement or rule."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SchemaError(ReproError):
    """Raised for catalog violations: unknown/duplicate tables or columns."""


class TypeCheckError(SchemaError):
    """Raised when an expression or DML statement fails static typing."""


class ExecutionError(ReproError):
    """Base class for runtime evaluation failures."""


class EvaluationError(ExecutionError):
    """Raised when expression evaluation fails (e.g. bad operand types)."""


class QueryError(ExecutionError):
    """Raised when a SELECT statement cannot be executed."""


class RollbackSignal(ExecutionError):
    """Raised by a ``rollback`` action to abort the surrounding transaction.

    This is control flow, not a programming error: the rule processor
    catches it, restores the pre-transaction database state, and records
    the rollback as an observable action.
    """

    def __init__(self, message: str = "") -> None:
        super().__init__(message or "rollback")
        self.message = message


class ConflictError(ReproError):
    """A session failed first-committer-wins validation and was aborted.

    Retriable by construction: the session's fork is discarded and
    nothing it did is visible, so the caller may simply open a fresh
    session (against a newer snapshot) and re-run the same statements.
    :class:`~repro.runtime.server.RuleServer` raises it from
    ``Session.commit``; ``items`` names the conflicting footprint
    entries (``"table"`` or ``"table.column"``).
    """

    def __init__(self, message: str, items: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.items = items


class ConfigError(ReproError, ValueError):
    """Raised for an out-of-range execution or server option.

    Also a :class:`ValueError`, the builtin callers already catch for a
    bad argument value.
    """


class RuleError(ReproError):
    """Raised for invalid rule definitions or rule-set construction."""


class PriorityCycleError(RuleError):
    """Raised when precedes/follows clauses induce a cyclic ordering."""

    def __init__(self, cycle: list[str]) -> None:
        super().__init__(
            "user-defined priorities are cyclic: " + " > ".join(cycle)
        )
        self.cycle = cycle


class RuleProcessingError(ReproError):
    """Raised when the rule processor cannot make progress."""


class RuleProcessingLimitExceeded(RuleProcessingError):
    """Raised when rule processing exceeds its configured step budget.

    Conservatively treated as possible nontermination by callers.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"rule processing exceeded {limit} steps")
        self.limit = limit


class ExplorationLimitExceeded(RuleProcessingError):
    """Raised when execution-graph exploration exceeds its state budget."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"execution graph exploration exceeded {limit} states")
        self.limit = limit


class AnalysisError(ReproError):
    """Raised for invalid static-analysis requests (e.g. unknown rule)."""
