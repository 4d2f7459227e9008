"""Net-effect composition of primitive operations ([WF90], Section 2).

Folding a primitive sequence at tuple (tid) granularity yields, per
table, three disjoint maps: inserted tuples, deleted tuples (with their
pre-transition values), and updated tuples (with pre- and
post-transition values). Identity composite updates (old == new after
composition) vanish from the net effect: a sequence of updates that
restores a tuple's original values triggers nothing — which is also what
makes rule *untriggering* (Section 3's ``Can-Untrigger``) possible at
the tuple level.

Incrementality. Because tids are unique for a tuple's lifetime,
net-effect composition is associative over log suffixes *including* the
compaction steps (dropping identity updates and empty tables): an
identity composite update means the tuple currently holds its
pre-transition values, so folding later primitives onto the compacted
state yields exactly the from-scratch result. :meth:`NetEffect.fold`
exploits this: the rule processor keeps one cached net effect per
pending slice (rule table, marker) and advances it by only the
primitives appended on that table since the last check, instead of
refolding the whole suffix. Folds are copy-on-write at table
granularity — a fold touching table ``t`` leaves every other table's
:class:`TableNetEffect` structurally shared with the input — so forked
processors alias their parents' cached transitions.
"""

from __future__ import annotations

from repro.transitions.delta import Primitive


class TableNetEffect:
    """The net effect of a transition on a single table."""

    __slots__ = ("table", "inserted", "deleted", "updated", "_owned", "_canonical")

    def __init__(
        self,
        table: str,
        inserted: dict[int, tuple] | None = None,
        deleted: dict[int, tuple] | None = None,
        updated: dict[int, tuple[tuple, tuple]] | None = None,
    ) -> None:
        self.table = table
        self.inserted = inserted if inserted is not None else {}
        self.deleted = deleted if deleted is not None else {}
        self.updated = updated if updated is not None else {}
        #: False once this effect is structurally shared (a fold must
        #: copy it before mutating)
        self._owned = True
        #: memoized canonical() — invalidated on mutation
        self._canonical: tuple | None = None

    def is_empty(self) -> bool:
        return not (self.inserted or self.deleted or self.updated)

    def updated_columns(self, column_names: tuple[str, ...]) -> frozenset[str]:
        """Column names whose value changed in some composite update."""
        changed: set[str] = set()
        for old, new in self.updated.values():
            for name, old_value, new_value in zip(column_names, old, new):
                if old_value != new_value or type(old_value) is not type(
                    new_value
                ):
                    changed.add(name)
        return frozenset(changed)

    def updates_any(self, positions: tuple[int, ...]) -> bool:
        """True iff some composite update changes a column at one of
        *positions*: the test of :meth:`updated_columns`, stopping at
        the first changed column instead of naming them all."""
        if positions:
            for old, new in self.updated.values():
                for index in positions:
                    old_value, new_value = old[index], new[index]
                    if old_value != new_value or type(old_value) is not type(
                        new_value
                    ):
                        return True
        return False

    def canonical(self) -> tuple:
        """A hashable, tid-free canonical form (for execution-graph states).

        Tids are surrogate identifiers; two transitions that insert,
        delete and update the same bags of values are the same
        transition for state-identity purposes. Like the table
        canonical, the result is a hash-once
        :class:`~repro.engine.values.CanonicalFragment`.
        """
        if self._canonical is None:
            # Imported here: the engine package imports this module.
            from repro.engine.values import CanonicalFragment, sorted_rows

            self._canonical = CanonicalFragment(
                (
                    self.table,
                    tuple(sorted_rows(self.inserted.values())),
                    tuple(sorted_rows(self.deleted.values())),
                    tuple(sorted_rows(self.updated.values(), pairs=True)),
                )
            )
        return self._canonical

    def _copy(self) -> "TableNetEffect":
        clone = TableNetEffect(
            self.table,
            dict(self.inserted),
            dict(self.deleted),
            dict(self.updated),
        )
        clone._canonical = self._canonical
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableNetEffect):
            return NotImplemented
        return (
            self.table == other.table
            and self.inserted == other.inserted
            and self.deleted == other.deleted
            and self.updated == other.updated
        )

    def __repr__(self) -> str:
        return (
            f"TableNetEffect(table={self.table!r}, "
            f"inserted={self.inserted!r}, deleted={self.deleted!r}, "
            f"updated={self.updated!r})"
        )


class NetEffect:
    """The net effect of a transition across all tables."""

    __slots__ = ("_tables",)

    def __init__(self, tables: dict[str, TableNetEffect] | None = None) -> None:
        self._tables = tables or {}

    @classmethod
    def from_primitives(cls, primitives) -> "NetEffect":
        """Fold *primitives* (in sequence order) into their net effect."""
        return cls().fold(primitives)

    def fold(self, primitives) -> "NetEffect":
        """This net effect advanced by *primitives* (in sequence order).

        Equivalent to refolding the full underlying sequence from
        scratch, in time proportional to ``len(primitives)`` plus the
        pending state of the touched tables. Copy-on-write: untouched
        tables are shared with ``self``; touched tables are copied
        first unless ``self`` still owns them (see :meth:`share`).
        Ownership of mutated state transfers to the result — after a
        fold, use the returned net effect, not ``self``.
        """
        tables = self._tables
        result: dict[str, TableNetEffect] | None = None
        touched: set[str] = set()
        #: (table, tid) pairs whose composite update this fold modified —
        #: the only entries that can have become identity updates
        updated_tids: set[tuple[str, int]] = set()
        for primitive in primitives:
            if result is None:
                result = dict(tables)
            name = primitive.table
            effect = result.get(name)
            if effect is None:
                effect = TableNetEffect(name)
                result[name] = effect
            elif name not in touched and not effect._owned:
                effect = effect._copy()
                result[name] = effect
            touched.add(name)
            effect._canonical = None
            _fold(effect, primitive)
            if primitive.kind == "U" and primitive.tid in effect.updated:
                updated_tids.add((name, primitive.tid))

        if result is None:
            return self

        # Compact: identity composite updates and empty table effects
        # vanish from the net effect. Only entries this fold modified
        # can have become identity, so compaction is O(new primitives).
        for name, tid in updated_tids:
            effect = result[name]
            pair = effect.updated.get(tid)
            if pair is not None and pair[0] == pair[1]:
                del effect.updated[tid]
        for name in touched:
            if result[name].is_empty():
                del result[name]
        return NetEffect(result)

    def share(self) -> "NetEffect":
        """Mark every table effect shared; later folds copy-on-write.

        Called when a cached net effect escapes its owner (a processor
        fork shares its pending slices with the child).
        """
        for effect in self._tables.values():
            effect._owned = False
        return self

    def table(self, name: str) -> TableNetEffect:
        """The (possibly empty) net effect on table *name*."""
        return self._tables.get(name.lower()) or TableNetEffect(name.lower())

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def is_empty(self) -> bool:
        return not self._tables

    def operations(
        self, column_names_of: dict[str, tuple[str, ...]]
    ) -> frozenset:
        """The operation set ``O ⊆ O`` of this transition (Section 3).

        Returns :class:`~repro.rules.events.TriggerEvent` values:
        ``(I, t)`` when the net effect inserts into ``t``; ``(D, t)``
        when it deletes; ``(U, t.c)`` for every column ``c`` changed by
        a composite update. *column_names_of* maps table name to its
        column-name tuple (needed to name updated columns).
        """
        operations: set = set()
        for name in self._tables:
            operations |= self.operations_for(name, column_names_of[name])
        return frozenset(operations)

    def operations_for(
        self, table: str, column_names: tuple[str, ...]
    ) -> frozenset:
        """The operation set restricted to *table*.

        Rules trigger only on operations of their own table, so the
        processor's triggering check needs just this slice — O(pending
        effect on one table) instead of O(pending effect overall).
        """
        from repro.rules.events import TriggerEvent

        effect = self._tables.get(table)
        if effect is None:
            return frozenset()
        operations: set = set()
        if effect.inserted:
            operations.add(TriggerEvent.insert(table))
        if effect.deleted:
            operations.add(TriggerEvent.delete(table))
        if effect.updated:
            for column in effect.updated_columns(column_names):
                operations.add(TriggerEvent.update(table, column))
        return frozenset(operations)

    def canonical(self) -> tuple:
        return tuple(
            self._tables[name].canonical() for name in sorted(self._tables)
        )

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self._tables):
            effect = self._tables[name]
            parts.append(
                f"{name}(+{len(effect.inserted)} -{len(effect.deleted)} "
                f"~{len(effect.updated)})"
            )
        return f"NetEffect({', '.join(parts) or 'empty'})"


def _fold(effect: TableNetEffect, primitive: Primitive) -> None:
    tid = primitive.tid
    if primitive.kind == "I":
        if tid in effect.inserted or tid in effect.updated or tid in effect.deleted:
            # Tids are unique for a tuple's lifetime, so re-insertion of a
            # tid can only be the rollback-free re-use guarded against in
            # storage; reaching here indicates a processor bug.
            raise ValueError(f"tid {tid} already present in net effect")
        effect.inserted[tid] = primitive.new
        return

    if primitive.kind == "U":
        if tid in effect.inserted:
            # insert then update => insert of the updated tuple
            effect.inserted[tid] = primitive.new
            return
        if tid in effect.updated:
            # update then update => composite update
            original_old, __ = effect.updated[tid]
            effect.updated[tid] = (original_old, primitive.new)
            return
        if tid in effect.deleted:
            raise ValueError(f"update of deleted tid {tid}")
        effect.updated[tid] = (primitive.old, primitive.new)
        return

    # primitive.kind == "D"
    if tid in effect.inserted:
        # insert then delete => not considered at all
        del effect.inserted[tid]
        return
    if tid in effect.updated:
        # update then delete => deletion of the original value
        original_old, __ = effect.updated.pop(tid)
        effect.deleted[tid] = original_old
        return
    if tid in effect.deleted:
        raise ValueError(f"double delete of tid {tid}")
    effect.deleted[tid] = primitive.old
