"""Relational engine substrate: values, storage, expressions, queries, DML.

This package is the stand-in for the Starburst DBMS the paper's rule
system is embedded in. It provides exactly the SQL subset that rule
conditions and actions need: select-project-join with aggregates,
``exists``/``in`` subqueries, and set-oriented INSERT/DELETE/UPDATE whose
effects are reported as tuple-level deltas (consumed by
:mod:`repro.transitions` to build net-effect transitions).
"""

from repro.engine.database import Database
from repro.engine.storage import TableData
from repro.engine.query import QueryResult, execute_select
from repro.engine.dml import execute_statement
from repro.engine.expressions import Evaluator, RowContext
from repro.engine.wal import (
    RecoveryReport,
    RecoveryResult,
    WalError,
    WalWriteError,
    WalWriter,
    recover_database,
)

__all__ = [
    "Database",
    "TableData",
    "QueryResult",
    "execute_select",
    "execute_statement",
    "Evaluator",
    "RowContext",
    "RecoveryReport",
    "RecoveryResult",
    "WalError",
    "WalWriteError",
    "WalWriter",
    "recover_database",
]
