"""Tuple storage for one table.

Every stored tuple carries a surrogate *tuple id* (tid), unique across
the whole database for its lifetime. Tids let the transition machinery
of :mod:`repro.transitions` track the history of an individual tuple
across multiple operations, which is what the net-effect composition
rules of [WF90] are defined over.

Copy-on-write. :meth:`TableData.copy` aliases the tid map and marks
both sides shared; the first mutation on either side copies the map
once. The execution-graph explorer forks the whole database at every
branch, so snapshots are O(tables) and only tables a branch actually
writes ever pay the O(rows) copy. A stored row is a ``(tid, values)``
pair; no per-row object is built. The canonical form and the sorted
value-tuple list are memoized with write-invalidated dirty bits — and
both caches survive a copy, so a fork that never writes a table re-uses
its parent's sort work.

Equality indexes are maintained *incrementally* under all three
primitive operations: inserts append to their bucket (bisecting only
when a tid arrives out of order, e.g. during WAL replay), deletes
bisect the bucket's parallel tid list and splice both lists, and
updates either patch the row in place (key unchanged) or move it
between buckets at its tid position. Buckets therefore stay in tid
order — the property the planned executor's byte-identical-results
guarantee rests on — without the old drop-everything invalidation that
forced an O(rows) rebuild after every DELETE/UPDATE statement.
``PlannerStats.index_maintains`` counts these incremental advances
against ``index_builds`` (full rebuilds). The first write after a
copy-on-write fork clones the index structures instead of dropping
them: a dict/list copy is far cheaper than re-deriving the same index
with per-row key extraction.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.engine.values import CanonicalFragment, sort_key, sorted_rows
from repro.errors import ExecutionError

_PLAN_STATS = None


def _plan_stats():
    """The planner's counter bag (lazy import: plan imports the engine
    stack that imports this module)."""
    global _PLAN_STATS
    if _PLAN_STATS is None:
        from repro.engine.plan import STATS

        _PLAN_STATS = STATS
    return _PLAN_STATS


def index_key(values: tuple, cols: tuple[int, ...]) -> tuple | None:
    """The sort_key-wrapped index key of *values* at *cols* (None when
    any key column is NULL — NULL never compares equal)."""
    key = []
    for col in cols:
        value = values[col]
        if value is None:
            return None
        key.append(sort_key(value))
    return tuple(key)


class _EqualityIndexes:
    """The equality indexes over one table's rows.

    ``buckets[cols][key]`` is the value-tuple list consumers iterate
    (tid order); ``tids[cols][key]`` is the parallel tid list that makes
    deletes and updates O(log bucket) splices instead of full rebuilds.
    """

    __slots__ = ("buckets", "tids")

    def __init__(self) -> None:
        self.buckets: dict[tuple[int, ...], dict] = {}
        self.tids: dict[tuple[int, ...], dict] = {}

    def __bool__(self) -> bool:
        return bool(self.buckets)

    def build(self, cols: tuple[int, ...], pairs) -> dict:
        """Index the ``(tid, values)`` *pairs* (in tid order) on *cols*."""
        bucket: dict = {}
        tids: dict = {}
        for tid, values in pairs:
            key = index_key(values, cols)
            if key is not None:
                bucket.setdefault(key, []).append(values)
                tids.setdefault(key, []).append(tid)
        # Publish tids before buckets: concurrent readers (RuleServer
        # session threads whose snapshot forks share this structure
        # copy-on-write) key on ``buckets``, so any cols visible there
        # has its tid list too.
        self.tids[cols] = tids
        self.buckets[cols] = bucket
        _plan_stats().index_builds += 1
        return bucket

    def insert(self, tid: int, values: tuple) -> None:
        stats = _plan_stats()
        for cols, bucket in self.buckets.items():
            key = index_key(values, cols)
            if key is None:
                continue
            tid_list = self.tids[cols].setdefault(key, [])
            row_list = bucket.setdefault(key, [])
            if not tid_list or tid > tid_list[-1]:
                tid_list.append(tid)
                row_list.append(values)
            else:
                # Out-of-order tid (WAL replay, hand-built fixtures):
                # splice at the tid position to preserve bucket order.
                at = bisect_left(tid_list, tid)
                tid_list.insert(at, tid)
                row_list.insert(at, values)
            stats.index_maintains += 1

    def delete(self, tid: int, values: tuple) -> None:
        stats = _plan_stats()
        for cols, bucket in self.buckets.items():
            key = index_key(values, cols)
            if key is None:
                continue
            tid_list = self.tids[cols].get(key)
            if not tid_list:
                continue
            at = bisect_left(tid_list, tid)
            if at < len(tid_list) and tid_list[at] == tid:
                del tid_list[at]
                del bucket[key][at]
                if not tid_list:
                    del self.tids[cols][key]
                    del bucket[key]
            stats.index_maintains += 1

    def update(self, tid: int, old: tuple, new: tuple) -> None:
        stats = _plan_stats()
        for cols, bucket in self.buckets.items():
            old_key = index_key(old, cols)
            new_key = index_key(new, cols)
            if old_key == new_key:
                if old_key is not None:
                    tid_list = self.tids[cols][old_key]
                    at = bisect_left(tid_list, tid)
                    bucket[old_key][at] = new
                stats.index_maintains += 1
                continue
            if old_key is not None:
                tid_list = self.tids[cols][old_key]
                at = bisect_left(tid_list, tid)
                del tid_list[at]
                del bucket[old_key][at]
                if not tid_list:
                    del self.tids[cols][old_key]
                    del bucket[old_key]
            if new_key is not None:
                tid_list = self.tids[cols].setdefault(new_key, [])
                at = bisect_left(tid_list, tid)
                tid_list.insert(at, tid)
                bucket.setdefault(new_key, []).insert(at, new)
            stats.index_maintains += 1

    def copy(self) -> "_EqualityIndexes":
        """A structurally independent copy (the first-write-after-fork
        path: cheaper than rebuilding, safe to maintain in place)."""
        clone = _EqualityIndexes()
        clone.buckets = {
            cols: {key: list(rows) for key, rows in bucket.items()}
            for cols, bucket in self.buckets.items()
        }
        clone.tids = {
            cols: {key: list(tids) for key, tids in bucket.items()}
            for cols, bucket in self.tids.items()
        }
        return clone


class TableData:
    """The extension of one table: a tid-keyed map of value tuples."""

    __slots__ = (
        "name",
        "arity",
        "_rows",
        "_shared",
        "_canonical",
        "_values_list",
        "_indexes",
    )

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        self._rows: dict[int, tuple] = {}
        #: True while ``_rows`` is aliased by another TableData (copy-on-write)
        self._shared = False
        #: memoized canonical() — None when dirty
        self._canonical: tuple | None = None
        #: memoized value_tuples() result (tid order) — None when dirty
        self._values_list: list[tuple] | None = None
        #: equality indexes, maintained incrementally under writes.
        #: Shared with copy-on-write clones; the first write on either
        #: side deep-copies the structure (see :meth:`_own`).
        self._indexes = _EqualityIndexes()

    def _own(self) -> None:
        if self._shared:
            self._rows = dict(self._rows)
            self._shared = False
            # The index structures may be aliased by the other side
            # of the share; clone them (cheaper than the rebuild the old
            # drop-on-write discipline forced) before mutating.
            self._indexes = self._indexes.copy()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, tid: int, values: tuple) -> None:
        """Store *values* at *tid* (the one-pair case of :meth:`insert_many`)."""
        self.insert_many(((tid, values),))

    def insert_many(self, pairs) -> None:
        """Store every ``(tid, values)`` pair of the iterable *pairs*, in order.

        The one insert routine. Each pair gets the per-row checks — the
        arity, then a duplicate tid (already stored, or earlier in
        *pairs*) — and both raise :class:`ExecutionError` with the pairs
        before it stored, exactly as a loop of single inserts would
        leave the table. Equality indexes advance per pair as
        well (``index_maintains`` counts the same); what a batch pays
        once is the copy-on-write :meth:`_own` and the memo resets. An
        empty *pairs* copies and resets nothing.
        """
        arity = self.arity
        rows = None
        for tid, values in pairs:
            if len(values) != arity:
                raise ExecutionError(
                    f"table {self.name!r} expects {arity} values, "
                    f"got {len(values)}"
                )
            if tid in self._rows:
                raise ExecutionError(
                    f"duplicate tid {tid} in table {self.name!r}"
                )
            if rows is None:
                # The first pair: own the map and reset the memos once.
                self._own()
                self._canonical = None
                self._values_list = None
                rows = self._rows
                indexes = self._indexes if self._indexes.buckets else None
            rows[tid] = values
            if indexes is not None:
                indexes.insert(tid, values)

    def delete(self, tid: int) -> tuple:
        if tid not in self._rows:
            raise ExecutionError(f"no tid {tid} in table {self.name!r}")
        self._own()
        self._canonical = None
        self._values_list = None
        old = self._rows.pop(tid)
        self._indexes.delete(tid, old)
        return old

    def update(self, tid: int, values: tuple) -> tuple:
        """Replace the values at *tid*; returns the old values."""
        if tid not in self._rows:
            raise ExecutionError(f"no tid {tid} in table {self.name!r}")
        if len(values) != self.arity:
            raise ExecutionError(
                f"table {self.name!r} expects {self.arity} values, "
                f"got {len(values)}"
            )
        self._own()
        old = self._rows[tid]
        self._rows[tid] = values
        self._canonical = None
        self._values_list = None
        self._indexes.update(tid, old, values)
        return old

    def get(self, tid: int) -> tuple | None:
        return self._rows.get(tid)

    def value_tuples(self) -> list[tuple]:
        """All value tuples, in tid order.

        The returned list is cached and shared; callers must not
        mutate it.
        """
        if self._values_list is None:
            rows = self._rows
            self._values_list = [rows[tid] for tid in sorted(rows)]
        return self._values_list

    def equality_index(self, cols: tuple[int, ...]) -> dict:
        """A hash index over the columns at indexes *cols*.

        Maps :func:`~repro.engine.values.sort_key`-wrapped key tuples to
        value-tuple buckets in tid order; rows with a NULL key column are
        excluded (NULL never compares equal). The index is memoized like
        :meth:`canonical`: it survives copy-on-write :meth:`copy` forks
        and advances incrementally under inserts, deletes *and* updates
        (``PlannerStats.index_maintains``); only the first probe pays
        the O(rows) build (``index_builds``), straight from the tid map
        like :meth:`items`. Callers must not mutate the returned dict or
        its buckets.
        """
        index = self._indexes.buckets.get(cols)
        if index is None:
            index = self._indexes.build(cols, self.items())
        return index

    def equality_pairs(self, cols: tuple[int, ...], key: tuple) -> list:
        """The ``(tid, values)`` pairs of :meth:`equality_index`'s bucket
        *key* on *cols*, in tid order (the bucket zipped with its
        parallel tid list)."""
        rows = self.equality_index(cols).get(key, ())
        return list(zip(self._indexes.tids[cols].get(key, ()), rows))

    def tids(self) -> list[int]:
        """All tids, in order, straight from the tid map."""
        return sorted(self._rows)

    def items(self) -> list[tuple[int, tuple]]:
        """All (tid, values) pairs in tid order.

        The WAL checkpoint frame serializes exactly this — tids
        included, so a recovered table is identical at tuple-identity
        granularity, not just canonically. The pairs come straight from
        the tid map (tids are unique, so the sort never compares
        values).
        """
        return sorted(self._rows.items())

    def apply_effect(self, effect) -> None:
        """Apply a :class:`~repro.transitions.net_effect.TableNetEffect`.

        The three maps of a net effect are disjoint over tids (deletes
        and updates reference pre-transition tids, inserts allocate new
        ones), so the application order — deletes, updates, inserts —
        is the unique sequential order consistent with any primitive
        sequence that folds to *effect*. WAL recovery replays each
        committed transaction this way: the log records raw
        :class:`~repro.transitions.delta.Primitive` frames, and replay
        is ``NetEffect.fold`` over them followed by this application.
        """
        for tid in effect.deleted:
            self.delete(tid)
        for tid, (__, new) in effect.updated.items():
            self.update(tid, new)
        self.insert_many(effect.inserted.items())

    def canonical(self) -> tuple:
        """The table's contents as a sorted bag of value tuples.

        Tids are deliberately excluded: two database states are "the
        same" (for execution-graph state identity and for confluence
        checking) when they hold the same bags of tuples, regardless of
        internal surrogate ids. The result is a
        :class:`~repro.engine.values.CanonicalFragment`: memoized until
        the next write and shared with copy-on-write forks, it carries
        its hash along, so keying a state re-hashes no rows.
        """
        if self._canonical is None:
            self._canonical = CanonicalFragment(sorted_rows(self._rows.values()))
        return self._canonical

    def copy(self) -> "TableData":
        """A copy of this table's extension, copy-on-write.

        The tid map is aliased and both sides marked shared — O(1); the
        first write on either side pays the O(rows) copy (:meth:`_own`).
        """
        clone = TableData(self.name, self.arity)
        self._shared = True
        clone._rows = self._rows
        clone._shared = True
        clone._canonical = self._canonical
        clone._values_list = self._values_list
        # Index sharing is safe: the first write on either side clones
        # (never mutates) the shared structures via _own.
        clone._indexes = self._indexes
        return clone

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, tid: int) -> bool:
        return tid in self._rows

    def __repr__(self) -> str:
        return f"TableData({self.name}, {len(self._rows)} rows)"
