"""Attribute-level dataflow analysis of rule programs.

Section 6.1 of the paper closes with an invitation: "the syntactic
conditions we use could be refined with finer semantic information".
This module is that refinement for the *attribute* (column) dimension.
For every rule it computes three sets, all purely syntactic and all
conservative:

* ``Writes(r)`` — ``(table, column, op-kind)`` triples covering every
  column the rule's action can modify: an UPDATE writes exactly its
  assigned columns (kind ``U``); an INSERT materialises whole rows, so
  it writes every column of its target (kind ``I``); a DELETE removes
  whole rows, likewise every column (kind ``D``).

* ``ColumnReads(r)`` — ``(table, column)`` pairs whose *values* the
  rule's behavior depends on. This is strictly sharper than the
  Section 3 ``Reads`` of :mod:`repro.analysis.derived`: a ``SELECT *``
  (or ``count(*)``) appearing where only row *existence* matters — an
  ``EXISTS`` subquery, or an aggregate over row counts — contributes no
  column reads at all, because updating a column value can never change
  which rows exist.

* ``RowReadTables(r)`` — tables whose row *membership* the rule depends
  on: every FROM table of every select it evaluates (with transition
  tables resolved to the rule's own table, as in ``Reads``). Inserts
  and deletes into these tables can affect the rule even when no column
  value is read — this is what keeps the refinement *sound*:
  ``count(*)`` reads no column, but its table still lands here. Target
  tables of the rule's own UPDATE/DELETE statements are deliberately
  *not* membership reads: insert interference with them is exactly
  Lemma 6.1 condition 4, and delete interference is covered by the
  WHERE-clause column reads (an unconditional write commutes with row
  removal).

The split powers the refined Lemma 6.1 overlap tests in
:mod:`repro.analysis.commutativity` (``column_dataflow=True``): an
update event ``(U, t.c)`` interferes with a reader only when ``(t, c)``
is in the reader's ``ColumnReads``, while insert/delete events check
table membership against ``ColumnReads``' tables ∪ ``RowReadTables``.
The lint passes of :mod:`repro.lint` reuse ``Writes``/``ColumnReads``
for dead-write detection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.scoping import References, resolve_references
from repro.lang import ast
from repro.rules.rule import Rule


@dataclass(frozen=True, order=True)
class Write:
    """One element of ``Writes(r)``: a column the action may modify.

    ``kind`` is the modifying operation: ``"I"`` (the column is filled
    by an inserted row), ``"D"`` (the column disappears with a deleted
    row), or ``"U"`` (the column is assigned by an update).
    """

    table: str
    column: str
    kind: str

    def __str__(self) -> str:
        return f"({self.kind}, {self.table}.{self.column})"


@dataclass(frozen=True)
class RuleDataflow:
    """The attribute-level footprint of one rule."""

    writes: frozenset[Write]
    column_reads: frozenset[tuple[str, str]]
    row_read_tables: frozenset[str]

    @property
    def written_columns(self) -> frozenset[tuple[str, str]]:
        return frozenset((w.table, w.column) for w in self.writes)

    @property
    def read_tables(self) -> frozenset[str]:
        """Every table the rule is sensitive to: column-value reads and
        row-membership reads combined."""
        return (
            frozenset(table for table, __ in self.column_reads)
            | self.row_read_tables
        )


def rule_dataflow(rule: Rule) -> RuleDataflow:
    """Compute the full attribute-level footprint of *rule*."""
    references = resolve_references(rule)
    return RuleDataflow(
        writes=compute_writes(rule),
        column_reads=column_reads(references),
        row_read_tables=row_read_tables(references),
    )


# ----------------------------------------------------------------------
# Writes
# ----------------------------------------------------------------------


def compute_writes(rule: Rule) -> frozenset[Write]:
    """``Writes(r)`` as ``(table, column, op-kind)`` triples."""
    writes: set[Write] = set()
    for action in rule.actions:
        if isinstance(action, ast.Insert):
            table = action.table.lower()
            for column in rule.schema.table(table).column_names:
                writes.add(Write(table, column, "I"))
        elif isinstance(action, ast.Delete):
            table = action.table.lower()
            for column in rule.schema.table(table).column_names:
                writes.add(Write(table, column, "D"))
        elif isinstance(action, ast.Update):
            table = action.table.lower()
            for assignment in action.assignments:
                writes.add(Write(table, assignment.column.lower(), "U"))
    return frozenset(writes)


# ----------------------------------------------------------------------
# Column reads (value-sensitive) and row reads (membership-sensitive)
# ----------------------------------------------------------------------


def column_reads(references: References) -> frozenset[tuple[str, str]]:
    """``ColumnReads(r)``: the ``(table, column)`` pairs whose values the
    rule depends on.

    Differs from the Section 3 ``Reads`` exactly where only existence
    matters: an ``EXISTS (SELECT * ...)`` contributes its WHERE / GROUP
    BY / HAVING columns but not its output, ``count(*)`` contributes
    nothing (its value is pure row membership, tracked by
    :func:`row_read_tables`). References resolve exactly as for
    ``Reads`` (:mod:`repro.analysis.scoping`).
    """
    reads = {
        (table, fact.column)
        for fact in references.columns
        if fact.value_read and fact.known
        for table in fact.tables
    }
    for select in references.selects:
        if select.star and select.value_read:
            for table in select.from_tables:
                for column in references.table_columns(table):
                    reads.add((table, column))
    return frozenset(reads)


def row_read_tables(references: References) -> frozenset[str]:
    """``RowReadTables(r)``: tables whose row membership the rule's
    behavior depends on — every FROM table of every select, transition
    tables resolved to the rule's own table as in ``Reads``."""
    return frozenset(
        table
        for select in references.selects
        for table in select.from_tables
    )
