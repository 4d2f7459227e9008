"""Preliminary static analysis: the derived definitions of Section 3.

For a rule set ``R`` over schema tables ``T`` with columns ``C`` and
operation set ``O``, this module computes:

* ``Triggered-By(r)`` — operations in ``O`` that trigger ``r`` (held on
  the :class:`~repro.rules.rule.Rule` itself, re-exposed here);
* ``Performs(r)``    — operations ``r``'s action may perform;
* ``Triggers(r)``    — ``{r' ∈ R | Performs(r) ∩ Triggered-By(r') ≠ ∅}``;
* ``Reads(r)``       — columns ``r`` may read in its condition or action,
  with every transition-table reference contributing the corresponding
  column of the rule's own table, and every FROM table a select names no
  column of contributing all its columns;
* ``Can-Untrigger(O')`` — rules whose triggering can be undone by the
  deletions in ``O'``;
* ``Observable(r)``  — whether ``r``'s action may be observable.

Everything is purely syntactic (computed from the rule ASTs) and
conservative, exactly as in the paper.

The module also provides the ``Obs`` extension of Section 8: extended
``Reads``/``Performs`` where every observable rule additionally reads
column ``Obs.c`` and performs ``(I, Obs)`` on a fictional table whose
name (:data:`OBS_TABLE`) cannot collide with parser-produced names.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.dataflow import RuleDataflow, Write, rule_dataflow
from repro.analysis.scoping import References, resolve_references
from repro.lang import ast
from repro.rules.events import TriggerEvent
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet

#: Name of the fictional observation-log table (Section 8). Contains a
#: character that cannot appear in a parsed identifier, so it can never
#: collide with a real table.
OBS_TABLE = "@obs"

#: The single column of the fictional Obs table.
OBS_COLUMN = "c"


class DerivedDefinitions:
    """The Section 3 definitions, computed once per rule set.

    All methods take and return lower-cased rule names; reads are
    ``(table, column)`` pairs and operations are
    :class:`~repro.rules.events.TriggerEvent` values. ``Reads`` also
    covers every FROM table a select names no column of (all its
    columns), so each table whose rows a rule's selects depend on
    appears in it.
    """

    #: Rules whose ``Reads``/``Performs`` differ from the base
    #: definitions' (none here; the observable rules in the Obs view).
    #: Every other rule pair is judged exactly as over the base
    #: definitions, so an engine shares those judgments between views.
    extended_rules: frozenset[str] = frozenset()

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset
        self._triggered_by: dict[str, frozenset[TriggerEvent]] = {}
        self._performs: dict[str, frozenset[TriggerEvent]] = {}
        self._reads: dict[str, frozenset[tuple[str, str]]] = {}
        self._observable: dict[str, bool] = {}
        self._dataflow: dict[str, RuleDataflow] = {}
        for rule in ruleset:
            self._triggered_by[rule.name] = rule.triggered_by
            self._performs[rule.name] = _compute_performs(rule)
            self._reads[rule.name] = _compute_reads(resolve_references(rule))
            self._observable[rule.name] = rule.is_observable
        self._triggers: dict[str, frozenset[str]] = {
            name: frozenset(
                other
                for other in self._triggered_by
                if self._performs[name] & self._triggered_by[other]
            )
            for name in self._triggered_by
        }
        # Can-Untrigger index: table -> the rules an insert into or an
        # update of it triggers, i.e. the rules a delete from it untriggers
        untriggered: dict[str, set[str]] = {}
        for name, events in self._triggered_by.items():
            for event in events:
                if event.kind in ("I", "U"):
                    untriggered.setdefault(event.table, set()).add(name)
        self._untriggered_by_delete: dict[str, frozenset[str]] = {
            table: frozenset(names) for table, names in untriggered.items()
        }

    # ------------------------------------------------------------------

    @property
    def rule_names(self) -> tuple[str, ...]:
        return self.ruleset.names

    def triggered_by(self, rule: str) -> frozenset[TriggerEvent]:
        return self._triggered_by[rule.lower()]

    def performs(self, rule: str) -> frozenset[TriggerEvent]:
        return self._performs[rule.lower()]

    def triggers(self, rule: str) -> frozenset[str]:
        return self._triggers[rule.lower()]

    def reads(self, rule: str) -> frozenset[tuple[str, str]]:
        return self._reads[rule.lower()]

    def observable(self, rule: str) -> bool:
        return self._observable[rule.lower()]

    def dataflow(self, rule: str) -> RuleDataflow:
        """The attribute-level footprint of *rule* — ``Writes``,
        ``ColumnReads`` and ``RowReadTables`` per
        :mod:`repro.analysis.dataflow`. Computed lazily (only analyses
        running with ``column_dataflow`` or ``refine``, and the lint
        passes, need it) and memoized per rule."""
        name = rule.lower()
        footprint = self._dataflow.get(name)
        if footprint is None:
            footprint = self._extend_dataflow(
                name, rule_dataflow(self.ruleset.rule(name))
            )
            self._dataflow[name] = footprint
        return footprint

    def _extend_dataflow(
        self, name: str, footprint: RuleDataflow
    ) -> RuleDataflow:
        """Hook for subclasses (the Obs extension) to widen a rule's
        footprint before it is memoized."""
        return footprint

    def can_untrigger(
        self, operations: Iterable[TriggerEvent]
    ) -> frozenset[str]:
        """``Can-Untrigger(O')`` — rules that deletions in *operations*
        can untrigger: rules triggered by insertions into, or updates of,
        a table that *operations* deletes from. One index lookup per
        delete in *operations*."""
        index = self._untriggered_by_delete
        return frozenset().union(
            *(index.get(event.table, ()) for event in operations
              if event.kind == "D")
        )


class ObsExtendedDefinitions(DerivedDefinitions):
    """Section 8's extended definitions over ``T ∪ {Obs}``.

    Every observable rule's ``Reads`` gains ``Obs.c`` and its
    ``Performs`` gains ``(I, Obs)``. ``Triggers`` is *not* extended: no
    rule is triggered by the fictional table, so triggering behavior is
    unchanged — only the commutativity conditions see the extension
    (via conditions 3 and 4 of Lemma 6.1, which is exactly what forces
    any two observable rules to be noncommutative).
    """

    def __init__(
        self, ruleset: RuleSet, base: DerivedDefinitions | None = None
    ) -> None:
        """Extend *base*, the base definitions of the same *ruleset*, or
        compute them here when it is None.

        The extension widens copies of the base ``Reads`` and
        ``Performs``; every other definition is the base's own, so the
        rules' references are resolved once for both views.
        """
        if base is None:
            base = DerivedDefinitions(ruleset)
        vars(self).update(vars(base))
        self._performs = dict(base._performs)
        self._reads = dict(base._reads)
        self._dataflow = {}
        obs_insert = TriggerEvent.insert(OBS_TABLE)
        obs_read = (OBS_TABLE, OBS_COLUMN)
        self.extended_rules = frozenset(
            name
            for name, is_observable in self._observable.items()
            if is_observable
        )
        for name in self.extended_rules:
            self._performs[name] = self._performs[name] | {obs_insert}
            self._reads[name] = self._reads[name] | {obs_read}

    def _extend_dataflow(self, name: str, footprint):
        """Mirror the Reads/Performs extension at the attribute level:
        an observable rule reads and appends to the fictional Obs log,
        so any two observable rules' footprints collide on ``Obs.c``."""
        if not self._observable[name]:
            return footprint
        return RuleDataflow(
            writes=footprint.writes | {Write(OBS_TABLE, OBS_COLUMN, "I")},
            column_reads=footprint.column_reads | {(OBS_TABLE, OBS_COLUMN)},
            row_read_tables=footprint.row_read_tables | {OBS_TABLE},
        )


# ----------------------------------------------------------------------
# Performs
# ----------------------------------------------------------------------


def _compute_performs(rule: Rule) -> frozenset[TriggerEvent]:
    """``Performs(r)``: one event per DML statement target.

    * ``insert into t ...``       → ``(I, t)``
    * ``delete from t ...``       → ``(D, t)``
    * ``update t set c = ...``    → ``(U, t.c)`` for each assigned column
    * ``select`` / ``rollback``   → no modification events
    """
    events: set[TriggerEvent] = set()
    for action in rule.actions:
        if isinstance(action, ast.Insert):
            events.add(TriggerEvent.insert(action.table))
        elif isinstance(action, ast.Delete):
            events.add(TriggerEvent.delete(action.table))
        elif isinstance(action, ast.Update):
            for assignment in action.assignments:
                events.add(
                    TriggerEvent.update(action.table, assignment.column)
                )
    return frozenset(events)


# ----------------------------------------------------------------------
# Reads
# ----------------------------------------------------------------------


def _compute_reads(references: References) -> frozenset[tuple[str, str]]:
    """``Reads(r)``: every ``t.c`` referenced in a select or where clause
    of ``r``'s condition or action, resolved as
    :mod:`repro.analysis.scoping` decides.

    A select's result also depends on the rows of each FROM table, even
    one it names no column of (``exists (select 1 from t)``, the unnamed
    factor of ``select u.w from t, u``). Each select charges such a
    table, one no reference under the select resolves to, with all its
    columns, as ``select *`` and ``count(*)`` are charged; otherwise
    inserts into and deletes from ``t`` would miss Lemma 6.1
    condition 3."""
    reads: set[tuple[str, str]] = set()
    named: list[set[str]] = [set() for __ in references.selects]
    for fact in references.columns:
        if fact.known:
            for table in fact.tables:
                reads.add((table, fact.column))
                for index in fact.selects:
                    named[index].add(table)
    for select, names in zip(references.selects, named):
        for table in select.from_tables:
            if select.star or select.counts_rows or table not in names:
                for column in references.table_columns(table):
                    reads.add((table, column))
    return frozenset(reads)
