"""Schema catalog for the relational engine substrate.

A :class:`Schema` is an immutable-after-construction catalog of
:class:`TableDef` objects, each holding ordered :class:`ColumnDef`
entries. The static analyses of the paper operate on *table.column*
pairs (the set ``C`` of Section 3), which this module provides via
:meth:`Schema.columns`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    def accepts(self, value: object) -> bool:
        """Return True if *value* (a Python object, or None) fits this type."""
        if value is None:
            return True  # every column is nullable
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.STRING:
            return isinstance(value, str)
        return isinstance(value, bool)


@dataclass(frozen=True)
class ColumnDef:
    """A single column: a name and a type."""

    name: str
    type: ColumnType = ColumnType.INT


class TableDef:
    """An ordered collection of columns under a table name."""

    def __init__(self, name: str, columns: list[ColumnDef] | None = None) -> None:
        self.name = name.lower()
        self._columns: dict[str, ColumnDef] = {}
        self._order: list[str] = []
        #: the column types in column order, so a type check needs no
        #: lookup by column name
        self.column_types: tuple[ColumnType, ...] = ()
        for column in columns or []:
            self.add_column(column)

    def add_column(self, column: ColumnDef | str) -> ColumnDef:
        """Add a column (a ColumnDef, or a bare name defaulting to INT)."""
        if isinstance(column, str):
            column = ColumnDef(column)
        name = column.name.lower()
        if name in self._columns:
            raise SchemaError(
                f"duplicate column {name!r} in table {self.name!r}"
            )
        column = ColumnDef(name, column.type)
        self._columns[name] = column
        self._order.append(name)
        self.column_types += (column.type,)
        return column

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._order)

    def column(self, name: str) -> ColumnDef:
        try:
            return self._columns[name.lower()]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._columns

    def column_index(self, name: str) -> int:
        try:
            return self._order.index(name.lower())
        except ValueError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:
        columns = ", ".join(
            f"{c.name} {c.type.value}" for c in self._columns.values()
        )
        return f"TableDef({self.name}: {columns})"


class Schema:
    """A catalog of tables.

    Construction helpers::

        schema = Schema()
        schema.add_table("emp", ["id", "dept", "salary"])
        schema.add_table(
            "dept",
            [ColumnDef("id"), ColumnDef("name", ColumnType.STRING)],
        )
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}

    def add_table(
        self, name: str, columns: list[ColumnDef | str] | None = None
    ) -> TableDef:
        """Create and register a table; returns its TableDef."""
        key = name.lower()
        if key in self._tables:
            raise SchemaError(f"duplicate table {name!r}")
        table = TableDef(key)
        for column in columns or []:
            table.add_column(column)
        self._tables[key] = table
        return table

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        """The set ``T`` of Section 3, in insertion order."""
        return tuple(self._tables)

    def columns(self) -> tuple[tuple[str, str], ...]:
        """The set ``C`` of Section 3 as (table, column) pairs."""
        return tuple(
            (table.name, column)
            for table in self._tables.values()
            for column in table.column_names
        )

    def to_spec(self) -> dict[str, list[str]]:
        """The compact spec form, inverse of :func:`schema_from_spec`.

        Used by the WAL header so a log file is self-describing:
        ``Database.recover(path)`` rebuilds the schema from the header
        without any out-of-band state.
        """
        return {
            table.name: [
                column.name
                if column.type is ColumnType.INT
                else f"{column.name}:{column.type.value}"
                for column in (
                    table.column(name) for name in table.column_names
                )
            ]
            for table in self._tables.values()
        }

    def __iter__(self):
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return f"Schema({', '.join(self._tables)})"


def schema_from_spec(spec: dict[str, list[str]]) -> Schema:
    """Build a Schema from ``{"table": ["col", "col:string", ...]}``.

    Column entries may carry a type suffix after a colon; the default
    type is INT. This compact form is used heavily by tests and
    workload generators.
    """
    schema = Schema()
    for table_name, column_specs in spec.items():
        columns: list[ColumnDef | str] = []
        for column_spec in column_specs:
            if ":" in column_spec:
                column_name, type_name = column_spec.split(":", 1)
                columns.append(
                    ColumnDef(column_name.strip(), ColumnType(type_name.strip()))
                )
            else:
                columns.append(column_spec.strip())
        schema.add_table(table_name, columns)
    return schema
