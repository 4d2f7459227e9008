"""The user-defined priority relation ``P`` (Section 3).

``P`` is the transitive closure of the orderings induced by ``precedes``
and ``follows`` clauses: if ``r1`` specifies ``r2`` in its precedes list
(or ``r2`` names ``r1`` in its follows list) then ``r1 > r2 ∈ P``. The
relation must be a strict partial order; cycles are rejected.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.errors import PriorityCycleError, RuleError


class PriorityRelation:
    """A strict partial order over rule names, closed under transitivity."""

    def __init__(self, rule_names: list[str]) -> None:
        self._names = [name.lower() for name in rule_names]
        self._name_set = set(self._names)
        if len(self._name_set) != len(self._names):
            raise RuleError("duplicate rule names in priority relation")
        #: direct edges: higher -> set of lower
        self._direct: dict[str, set[str]] = {name: set() for name in self._names}
        #: transitive closure: higher -> every lower it precedes
        self._closure: dict[str, set[str]] = {name: set() for name in self._names}
        #: inverse closure: lower -> every higher that precedes it
        self._above: dict[str, set[str]] = {name: set() for name in self._names}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_ordering(self, higher: str, lower: str) -> None:
        """Record ``higher > lower``; raises on cycles or self-ordering."""
        higher = higher.lower()
        lower = lower.lower()
        for name in (higher, lower):
            if name not in self._name_set:
                raise RuleError(f"unknown rule {name!r} in priority ordering")
        if higher == lower:
            raise PriorityCycleError([higher, lower])
        if higher in self._closure[lower]:
            # The new edge would close a cycle; borrow it briefly so the
            # direct graph contains the loop to report, then restore.
            self._direct[higher].add(lower)
            cycle = self._find_cycle(higher)
            self._direct[higher].discard(lower)
            raise PriorityCycleError(cycle)
        self._direct[higher].add(lower)
        # Incremental closure update: the edge adds exactly the pairs
        # (a, b) for a above-or-equal *higher*, b below-or-equal *lower*.
        new_above = {higher} | self._above[higher]
        new_below = {lower} | self._closure[lower]
        for name in new_above:
            self._closure[name] |= new_below
        for name in new_below:
            self._above[name] |= new_above

    def remove_ordering(self, higher: str, lower: str) -> bool:
        """Remove a *direct* ordering; returns True if one was present.

        Only direct edges can be removed — an ordering implied by
        transitivity through other edges persists, mirroring how a rule
        programmer can only edit precedes/follows clauses.
        """
        higher = higher.lower()
        lower = lower.lower()
        if lower in self._direct.get(higher, ()):
            self._direct[higher].discard(lower)
            self._rebuild_closure()
            return True
        return False

    def copy(self) -> "PriorityRelation":
        clone = PriorityRelation(list(self._names))
        clone._direct = {name: set(lower) for name, lower in self._direct.items()}
        clone._closure = {name: set(low) for name, low in self._closure.items()}
        clone._above = {name: set(high) for name, high in self._above.items()}
        return clone

    def _rebuild_closure(self) -> None:
        """Recompute the closure from the direct edges (memoized DFS).

        ``add_ordering`` maintains the closure incrementally; this full
        rebuild only runs after edge *removal*, where implied pairs may
        have to disappear. Each node's reachable set is computed once,
        in reverse-finish order, so the whole pass is O(V·E) set unions
        rather than one traversal per start node.
        """
        ACTIVE, DONE = 1, 2
        closure: dict[str, set[str]] = {}
        state: dict[str, int] = {}
        for root in self._names:
            if state.get(root) == DONE:
                continue
            state[root] = ACTIVE
            closure[root] = set()
            stack = [(root, iter(self._direct[root]))]
            while stack:
                node, successors = stack[-1]
                for succ in successors:
                    if state.get(succ) == ACTIVE:
                        raise PriorityCycleError(self._find_cycle(succ))
                    if state.get(succ) == DONE:
                        closure[node].add(succ)
                        closure[node] |= closure[succ]
                        continue
                    state[succ] = ACTIVE
                    closure[succ] = set()
                    stack.append((succ, iter(self._direct[succ])))
                    break
                else:
                    state[node] = DONE
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        closure[parent].add(node)
                        closure[parent] |= closure[node]
        self._closure = closure
        above: dict[str, set[str]] = {name: set() for name in self._names}
        for high, lowers in closure.items():
            for low in lowers:
                above[low].add(high)
        self._above = above

    def _find_cycle(self, start: str) -> list[str]:
        path = [start]
        seen = {start}
        node = start
        while True:
            for successor in sorted(self._direct[node]):
                if successor == start:
                    return path + [start]
                if successor not in seen:
                    seen.add(successor)
                    path.append(successor)
                    node = successor
                    break
            else:
                # Dead end: backtrack (cannot happen when a cycle through
                # start exists, but guard against pathological graphs).
                path.pop()
                if not path:
                    return [start, start]
                node = path[-1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_precedence(self, higher: str, lower: str) -> bool:
        """True iff ``higher > lower ∈ P`` (transitively)."""
        return lower.lower() in self._closure.get(higher.lower(), frozenset())

    def are_ordered(self, first: str, second: str) -> bool:
        return self.has_precedence(first, second) or self.has_precedence(
            second, first
        )

    def are_unordered(self, first: str, second: str) -> bool:
        first = first.lower()
        second = second.lower()
        if first == second:
            return False
        return not self.are_ordered(first, second)

    def lower_than(self, name: str) -> frozenset[str]:
        """All rules that *name* has precedence over."""
        return frozenset(self._closure.get(name.lower(), ()))

    @property
    def above(self) -> Mapping[str, set[str]]:
        """Read-only view of the inverse closure: each rule name maps to
        every rule with precedence over it. ``remove_ordering`` replaces
        the underlying mapping, so read this afresh instead of keeping
        it."""
        return MappingProxyType(self._above)

    def pairs(self) -> frozenset[tuple[str, str]]:
        """``P`` as a set of (higher, lower) pairs, closed transitively."""
        return frozenset(
            (higher, lower)
            for higher, lowers in self._closure.items()
            for lower in lowers
        )

    def direct_pairs(self) -> frozenset[tuple[str, str]]:
        """Only the directly specified (higher, lower) pairs."""
        return frozenset(
            (higher, lower)
            for higher, lowers in self._direct.items()
            for lower in lowers
        )

    def unordered_pairs(self) -> list[tuple[str, str]]:
        """All unordered pairs of distinct rules, lexicographically."""
        names = sorted(self._name_set)
        return [
            (first, second)
            for i, first in enumerate(names)
            for second in names[i + 1 :]
            if self.are_unordered(first, second)
        ]

    def is_empty(self) -> bool:
        return all(not lowers for lowers in self._closure.values())

    def __contains__(self, pair: tuple[str, str]) -> bool:
        higher, lower = pair
        return self.has_precedence(higher, lower)

    def __repr__(self) -> str:
        pairs = sorted(self.direct_pairs())
        rendered = ", ".join(f"{h} > {l}" for h, l in pairs)
        return f"PriorityRelation({rendered or 'empty'})"
