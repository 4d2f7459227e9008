"""Primitive tuple-level operations and the append-only delta log.

The rule processor appends a :class:`Primitive` for every tuple an
INSERT/DELETE/UPDATE statement touches. Each rule holds a *marker* (a
log position); the rule's current triggering transition is the net
effect of the log suffix past its marker. This reproduces the
composite-transition bookkeeping of Section 2: rules not yet considered
see operations folded into the transition that first triggered them,
while a rule already considered only sees operations executed since.

Representation. The log is a sequence of *sealed chunks* (immutable
tuples of primitives, shared structurally between forks) followed by a
private mutable tail. :meth:`DeltaLog.fork` seals the tail and aliases
the chunk list, so forking a processor mid-exploration is O(chunks)
regardless of how many primitives the log holds — the execution-graph
explorer forks at every branch, and used to pay O(log) per fork.

The log also maintains a per-table *touch index* (:meth:`last_write`):
the position just past the most recent primitive on each table. The
rule processor uses it to recheck only the rules on tables written
since its triggered set was last brought up to date, without folding
anything for the others.
"""

from __future__ import annotations


class Primitive:
    """One tuple-level operation, as executed (not net-effect composed).

    ``kind`` is ``"I"``, ``"D"`` or ``"U"``. ``old`` is None for inserts;
    ``new`` is None for deletes.

    This is the hot-path record type — one instance per tuple touched by
    any statement — so construction performs no validation: the three
    typed ``DeltaLog.record_*`` constructors enforce the shape invariants
    by their signatures. Use :meth:`checked` for the validating path
    (deserialization, hand-built test fixtures).
    """

    __slots__ = ("seq", "kind", "table", "tid", "old", "new")

    def __init__(
        self,
        seq: int,
        kind: str,
        table: str,
        tid: int,
        old: tuple | None,
        new: tuple | None,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.table = table
        self.tid = tid
        self.old = old
        self.new = new

    @classmethod
    def checked(
        cls,
        seq: int,
        kind: str,
        table: str,
        tid: int,
        old: tuple | None,
        new: tuple | None,
    ) -> "Primitive":
        """The validating constructor (deserialization / fixtures)."""
        primitive = cls(seq, kind, table, tid, old, new)
        primitive.validate()
        return primitive

    def validate(self) -> None:
        if self.kind not in ("I", "D", "U"):
            raise ValueError(f"bad primitive kind {self.kind!r}")
        if self.kind == "I" and (self.old is not None or self.new is None):
            raise ValueError("insert primitive needs new values only")
        if self.kind == "D" and (self.old is None or self.new is not None):
            raise ValueError("delete primitive needs old values only")
        if self.kind == "U" and (self.old is None or self.new is None):
            raise ValueError("update primitive needs old and new values")

    def _astuple(self) -> tuple:
        return (self.seq, self.kind, self.table, self.tid, self.old, self.new)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Primitive):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"Primitive(seq={self.seq}, kind={self.kind!r}, "
            f"table={self.table!r}, tid={self.tid}, old={self.old!r}, "
            f"new={self.new!r})"
        )


class DeltaLog:
    """An append-only log of primitives with stable positions.

    Positions are stable across :meth:`fork`: a marker taken on the
    parent indexes the same primitives on every fork.
    """

    __slots__ = ("_chunks", "_floor", "_base", "_tail", "_last_write", "_sink")

    def __init__(self) -> None:
        #: sealed, immutable chunks — structurally shared between forks
        self._chunks: list[tuple[Primitive, ...]] = []
        #: position of the first stored primitive (raised by compact())
        self._floor = 0
        #: position just past the last sealed chunk
        self._base = 0
        #: private mutable tail (never shared)
        self._tail: list[Primitive] = []
        #: table -> position just past its most recent primitive
        self._last_write: dict[str, int] = {}
        #: optional callable invoked with every appended primitive — the
        #: durability hook (the rule processor points it at a WAL
        #: writer). Never copied by :meth:`fork`: forks are exploratory
        #: and must not write to the durable log.
        self._sink = None

    def set_sink(self, sink) -> None:
        """Attach (or detach, with None) the per-primitive sink."""
        self._sink = sink

    @property
    def position(self) -> int:
        """The current end-of-log position (a marker value)."""
        return self._base + len(self._tail)

    def record_insert(self, table: str, tid: int, values: tuple) -> Primitive:
        return self._append("I", table, tid, None, values)

    def record_delete(self, table: str, tid: int, values: tuple) -> Primitive:
        return self._append("D", table, tid, values, None)

    def record_update(
        self, table: str, tid: int, old: tuple, new: tuple
    ) -> Primitive:
        return self._append("U", table, tid, old, new)

    def _append(
        self,
        kind: str,
        table: str,
        tid: int,
        old: tuple | None,
        new: tuple | None,
    ) -> Primitive:
        table = table.lower()
        position = self._base + len(self._tail)
        primitive = Primitive(position, kind, table, tid, old, new)
        self._tail.append(primitive)
        self._last_write[table] = position + 1
        if self._sink is not None:
            self._sink(primitive)
        return primitive

    # ------------------------------------------------------------------
    # Structural sharing
    # ------------------------------------------------------------------

    def seal(self) -> None:
        """Freeze the mutable tail into an immutable shared chunk."""
        if self._tail:
            self._chunks.append(tuple(self._tail))
            self._base += len(self._tail)
            self._tail = []

    def fork(self) -> "DeltaLog":
        """An independent log holding the same primitives.

        The prefix is aliased in O(chunks); appends on either side stay
        private.
        """
        clone = DeltaLog()
        self.seal()
        clone._chunks = list(self._chunks)
        clone._base = self._base
        clone._floor = self._floor
        clone._last_write = dict(self._last_write)
        return clone

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _iter_all(self):
        for chunk in self._chunks:
            yield from chunk
        yield from self._tail

    def iter_range(self, start: int, stop: int):
        """Iterate the stored primitives with ``start <= position < stop``
        (none below the compaction floor)."""
        if start < 0:
            raise ValueError("marker must be non-negative")
        start = max(start, self._floor)
        if start >= stop:
            return
        offset = self._floor
        for chunk in self._chunks:
            end = offset + len(chunk)
            if end > start:
                lo = max(0, start - offset)
                hi = min(len(chunk), stop - offset)
                yield from chunk[lo:hi]
                if end >= stop:
                    return
            offset = end
        lo = max(0, start - self._base)
        hi = stop - self._base
        yield from self._tail[lo:hi]

    def since(self, marker: int) -> list[Primitive]:
        """The primitives appended at or after log position *marker*."""
        if marker < 0:
            raise ValueError("marker must be non-negative")
        return list(self.iter_range(marker, self.position))

    def all(self) -> list[Primitive]:
        return list(self._iter_all())

    def last_write(self, table: str) -> int:
        """Position just past the most recent primitive on *table*
        (0 if the table was never written)."""
        return self._last_write.get(table, 0)

    def written_since(self, table: str, position: int) -> bool:
        """True iff *table* has a primitive at or past *position*.

        The one touch-index consultation both consumers share: the rule
        processor's triggered-set refresh (only rules on tables written
        since the last refresh are rechecked, and a rule whose table was
        not written since its marker cannot be triggered) and the rete
        network's advance short-circuit (a network none of whose tables
        were written needs no folding).
        """
        return self._last_write.get(table, 0) > position

    def truncate(self, position: int) -> None:
        """Discard primitives past *position*.

        *position* may not lie below the compaction floor. A table written
        past *position* takes its touch epoch from the kept primitives;
        when its remaining writes all lie below the floor, the floor
        stands in as an upper bound, so ``written_since`` never misses a
        write.
        """
        if position >= self.position:
            return
        if position < self._floor:
            raise ValueError("cannot truncate below the compaction floor")
        kept = list(self.iter_range(self._floor, position))
        self._chunks = []
        self._base = self._floor
        self._tail = kept
        self._last_write = {
            table: epoch if epoch <= position else self._floor
            for table, epoch in self._last_write.items()
        }
        for primitive in kept:
            self._last_write[primitive.table] = primitive.seq + 1

    def compact(self) -> int:
        """Drop the stored primitive prefix, keeping positions and the
        touch index.

        The concurrent server uses a :class:`DeltaLog` purely as a
        monotone *epoch source* and touch index over published commits:
        it never reads primitives back (the WAL holds the durable copy),
        so retaining them would grow memory without bound. The rule
        processor compacts at a commit once every reader (rule markers,
        the rete cursor) has consumed the whole log. Compaction seals
        the tail and discards the chunk contents; ``position``,
        ``last_write`` and ``written_since`` are unaffected, while
        :meth:`iter_range`/:meth:`since` over the dropped prefix return
        nothing (the compaction point is the new readable floor).
        Forks taken earlier keep their own references to the dropped
        chunks. Returns the number of primitives dropped.
        """
        self.seal()
        dropped = sum(len(chunk) for chunk in self._chunks)
        self._chunks = []
        self._floor = self._base
        return dropped

    def __len__(self) -> int:
        return self.position


class ColumnTouchIndex:
    """Per-kind, per-column write epochs over a stream of primitives.

    The coarse touch index (:meth:`DeltaLog.last_write`) answers "was
    this table written past position p?". First-committer-wins
    validation at *column* granularity needs three finer questions,
    answered by feeding every published primitive through
    :meth:`observe`:

    * ``inserted_since(table, p)`` — rows appeared (membership grew);
    * ``deleted_since(table, p)`` — rows disappeared (and with them
      every column value they carried);
    * ``updated_since(table, column, p)`` — this column's values
      changed in place (an update primitive whose old and new tuples
      differ at the column's index).

    Positions follow the same convention as ``last_write``: the value
    stored is one past the primitive's position, and 0 means "never".
    """

    __slots__ = ("_inserted", "_deleted", "_updated")

    def __init__(self) -> None:
        self._inserted: dict[str, int] = {}
        self._deleted: dict[str, int] = {}
        self._updated: dict[str, dict[int, int]] = {}

    def observe(self, primitive: Primitive) -> None:
        position = primitive.seq + 1
        if primitive.kind == "I":
            self._inserted[primitive.table] = position
        elif primitive.kind == "D":
            self._deleted[primitive.table] = position
        else:
            changed = self._updated.setdefault(primitive.table, {})
            for index, (old, new) in enumerate(
                zip(primitive.old, primitive.new)
            ):
                if old != new:
                    changed[index] = position

    def inserted_since(self, table: str, position: int) -> bool:
        return self._inserted.get(table, 0) > position

    def deleted_since(self, table: str, position: int) -> bool:
        return self._deleted.get(table, 0) > position

    def updated_since(self, table: str, column: int, position: int) -> bool:
        return self._updated.get(table, {}).get(column, 0) > position

    def any_update_since(self, table: str, position: int) -> bool:
        """True iff *any* column of *table* was updated past *position*."""
        return any(
            at > position for at in self._updated.get(table, {}).values()
        )
