"""Observable actions (Section 8).

A rule action is *observable* when it is visible to the environment: in
Starburst, when it performs data retrieval (``select``) or a
``rollback``. Observable determinism asks whether the order *and
appearance* of these actions is independent of rule-choice order; the
runtime therefore records, for each observable action, both what kind it
was and its full payload (the retrieved rows, or the rollback message).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.values import sorted_rows


@dataclass(frozen=True)
class ObservableAction:
    """One environment-visible event emitted during rule processing.

    ``kind`` is ``"select"`` or ``"rollback"``. For selects, ``payload``
    is the sorted tuple of result rows (set-oriented retrieval has no
    inherent row order, so sorting gives a canonical appearance); for
    rollbacks it is the message string.
    """

    rule: str
    kind: str
    payload: tuple | str

    @classmethod
    def select(cls, rule: str, rows: list[tuple]) -> "ObservableAction":
        canonical = tuple(sorted_rows(rows))
        return cls(rule=rule, kind="select", payload=canonical)

    @classmethod
    def rollback(cls, rule: str, message: str) -> "ObservableAction":
        return cls(rule=rule, kind="rollback", payload=message)

    def __str__(self) -> str:
        if self.kind == "rollback":
            return f"{self.rule}: rollback({self.payload!r})"
        return f"{self.rule}: select -> {len(self.payload)} rows"
