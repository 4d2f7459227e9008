"""The mutable database state: a set of table extensions over a schema."""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

from repro.engine.storage import TableData
from repro.errors import SchemaError
from repro.schema.catalog import Schema


class Database:
    """A database instance: one :class:`TableData` per schema table.

    Tids are allocated from a single database-wide counter so that a tid
    identifies a tuple unambiguously across tables and across time.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._tables: dict[str, TableData] = {
            table.name: TableData(table.name, len(table)) for table in schema
        }
        self._next_tid = 1

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def table(self, name: str) -> TableData:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def column_names(self, name: str) -> tuple[str, ...]:
        return self.schema.table(name).column_names

    # ------------------------------------------------------------------
    # Mutation (tid-level primitives; statement execution lives in dml.py)
    # ------------------------------------------------------------------

    def allocate_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def insert_row(self, table: str, values: tuple) -> int:
        """Insert *values*, allocating and returning a fresh tid."""
        self._check_types(table, values)
        tid = self.allocate_tid()
        self.table(table).insert(tid, values)
        return tid

    def delete_row(self, table: str, tid: int) -> tuple:
        return self.table(table).delete(tid)

    def update_row(self, table: str, tid: int, values: tuple) -> tuple:
        data = self.table(table)
        self._check_types(table, values, data.get(tid))
        return data.update(tid, values)

    def _check_types(
        self, table: str, values: tuple, stored: tuple | None = None
    ) -> None:
        """Raise :class:`SchemaError` unless *values* fit *table*.

        With the *stored* row an update replaces, a position whose
        value is the stored object itself is not checked again: it
        passed this check when it was stored.
        """
        definition = self.schema.table(table)
        types = definition.column_types
        if len(values) != len(types):
            raise SchemaError(
                f"table {table!r} expects {len(types)} values, got {len(values)}"
            )
        for index, (kind, value) in enumerate(zip(types, values)):
            if stored is not None and value is stored[index]:
                continue
            if not kind.accepts(value):
                raise SchemaError(
                    f"value {value!r} does not fit column "
                    f"{table}.{definition.column_names[index]} "
                    f"of type {kind.value}"
                )

    # ------------------------------------------------------------------
    # Bulk loading (used by tests, examples, and workload generators)
    # ------------------------------------------------------------------

    def load(self, table: str, rows: list[tuple]) -> list[int]:
        """Insert many rows; returns the allocated tids.

        The same tids, checks and errors as one :meth:`insert_row` per
        row, at a fraction of the cost: each row's arity is checked, but
        ``ColumnType.accepts`` runs once per (column, Python class)
        present — exact, because ``accepts`` looks only at the value's
        class — and one :meth:`TableData.insert_many` stores the rows. A
        rejected row raises the :class:`SchemaError` :meth:`insert_row`
        would, after the rows before it are stored. An empty *rows*
        returns ``[]`` and copies nothing.
        """
        rows = list(map(tuple, rows))
        if not rows:
            return []
        stop = self._first_bad_row(table, rows)
        tids = list(range(self._next_tid, self._next_tid + stop))
        self._next_tid += stop
        self.table(table).insert_many(zip(tids, rows))
        if stop < len(rows):
            # Raises insert_row's SchemaError for the first bad row.
            self._check_types(table, rows[stop])
        return tids

    def _first_bad_row(self, table: str, rows: list[tuple]) -> int:
        """The index of the first row :meth:`_check_types` rejects, or
        ``len(rows)`` when it accepts every row."""
        types = self.schema.table(table).column_types
        arity = len(types)
        stop = len(rows)
        if set(map(len, rows)) != {arity}:
            stop = next(i for i, row in enumerate(rows) if len(row) != arity)
        for column, kind in enumerate(types):
            value_at = itemgetter(column)
            # accepts() reads only the class: one value decides its class.
            rejected = {
                cls
                for cls in set(map(type, map(value_at, islice(rows, stop))))
                if not kind.accepts(
                    next(v for v in map(value_at, rows) if type(v) is cls)
                )
            }
            if rejected:
                stop = next(
                    i for i, row in enumerate(rows) if type(row[column]) in rejected
                )
        return stop

    # ------------------------------------------------------------------
    # Durability (write-ahead log replay; see repro.engine.wal)
    # ------------------------------------------------------------------

    def apply_net_effect(self, net) -> None:
        """Apply a composed :class:`~repro.transitions.net_effect.NetEffect`.

        WAL recovery folds each committed transaction's primitives and
        applies the composite here — equivalent to replaying them one
        by one, by net-effect associativity.
        """
        for name in net.tables:
            self.table(name).apply_effect(net.table(name))

    def merge_update(
        self, table: str, tid: int, changed: dict[int, object]
    ) -> tuple[tuple, tuple]:
        """Overwrite only the columns in *changed* on row *tid*.

        The column-granular publication primitive of the concurrent
        server: a session's validated update carries just the columns it
        changed, and merging them onto the *current* row (rather than
        replaying the session's whole new tuple) preserves concurrent
        committed writes to disjoint columns of the same row. Returns
        the ``(old, new)`` tuples actually applied — the caller logs
        them as the published update primitive.
        """
        data = self.table(table)
        old = data.get(tid)
        if old is None:
            raise SchemaError(
                f"merge_update: row {tid} is not in table {table!r}"
            )
        new = tuple(
            changed.get(index, value) for index, value in enumerate(old)
        )
        self._check_types(table, new, old)
        data.update(tid, new)
        return old, new

    @classmethod
    def recover(cls, path: str, schema=None) -> "Database":
        """The database as of the last committed transaction in the WAL
        at *path*. Torn tails are truncated; uncommitted and aborted
        transactions are discarded. Pass *schema* to rebuild onto an
        existing catalog object (required before reattaching rule sets
        parsed against it). For the detailed report use
        :func:`repro.engine.wal.recover_database`."""
        from repro.engine.wal import recover_database

        return recover_database(path, schema=schema).database

    # ------------------------------------------------------------------
    # Snapshots and canonical form
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """An opaque copy of the full state, restorable via :meth:`restore`.

        Tables are snapshotted copy-on-write, so this is O(tables); a
        table pays the O(rows) copy only when written after the
        snapshot (and :meth:`restore` re-copies so one snapshot can be
        restored any number of times).
        """
        return {
            "tables": {name: data.copy() for name, data in self._tables.items()},
            "next_tid": self._next_tid,
        }

    def restore(self, snapshot: dict) -> None:
        self._tables = {
            name: data.copy() for name, data in snapshot["tables"].items()
        }
        self._next_tid = snapshot["next_tid"]

    def canonical(self) -> tuple:
        """A hashable canonical form of the database state.

        Tids are excluded (see :meth:`TableData.canonical`), so states
        reached along different execution paths compare equal exactly
        when they contain the same data — the equality the paper's
        confluence definition is stated over. Per-table canonical forms
        are memoized with write-invalidated dirty bits and survive
        copy-on-write forks, so re-keying a state after a step only
        re-sorts the tables that step wrote.
        """
        return tuple(
            (name, self._tables[name].canonical())
            for name in sorted(self._tables)
        )

    def canonical_for(self, tables: tuple[str, ...]) -> tuple:
        """Canonical form restricted to *tables* (for partial confluence)."""
        return tuple(
            (name, self._tables[name.lower()].canonical())
            for name in sorted(set(t.lower() for t in tables))
        )

    def copy(self) -> "Database":
        """An independent copy in O(tables): each table is shared
        copy-on-write (:meth:`TableData.copy`)."""
        clone = Database.__new__(Database)
        clone.schema = self.schema
        clone._tables = {
            name: data.copy() for name, data in self._tables.items()
        }
        clone._next_tid = self._next_tid
        return clone

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}={len(data)}" for name, data in self._tables.items()
        )
        return f"Database({sizes})"
