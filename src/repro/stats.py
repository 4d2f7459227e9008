"""The common work-counter protocol for runtime subsystems.

Three subsystems keep global or per-session work counters: the rule
processor (:class:`~repro.runtime.processor.ProcessorStats`), the query
planner (:class:`~repro.engine.plan.PlannerStats`), and the incremental
match network (:class:`~repro.engine.rete.ReteStats`). They used to be
three ad-hoc shapes — a dataclass, a ``__slots__`` class, and nothing —
each with its own hand-written ``to_dict``; the CLI's ``--stats``,
``--json`` and ``--profile`` surfaces special-cased every one.

:class:`StatsBase` is the shared shape: a counter class declares its
field names (``FIELDS``, all numeric, in report order) and which fields
are rounded floats (``SECONDS``); ``reset()``/``to_dict()`` come for
free and every consumer — benchmark gates, the CLI, tests — can treat
any stats object uniformly. :func:`render_stats` is the single
plain-text renderer behind ``--stats``.
"""

from __future__ import annotations

#: decimal places for wall-clock counters in to_dict()
_SECONDS_DIGITS = 6


class StatsBase:
    """A bag of numeric work counters with a uniform dict rendering.

    Subclasses declare ``FIELDS`` (report order) and optionally
    ``SECONDS`` (the subset holding float wall-clock accumulators,
    rounded to 6 digits by :meth:`to_dict`). All fields initialize to
    zero; :meth:`reset` zeroes them again.
    """

    #: counter names, in to_dict() order
    FIELDS: tuple[str, ...] = ()
    #: fields holding seconds (floats; rounded in to_dict())
    SECONDS: frozenset[str] = frozenset()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0.0 if name in self.SECONDS else 0)

    def to_dict(self) -> dict:
        """The counters as a JSON-ready dict (the ``Stats`` protocol)."""
        result: dict = {}
        for name in self.FIELDS:
            value = getattr(self, name)
            if name in self.SECONDS:
                value = round(value, _SECONDS_DIGITS)
            result[name] = value
        return result

    def snapshot(self) -> dict:
        """A point-in-time copy of the counters.

        Module-level singletons (``plan.STATS``, ``rete.STATS``)
        accumulate across every session in the process; a driver that
        runs several sessions back to back and reports the raw counters
        attributes all prior work to the last run — or, worse, resets
        the singleton and silently zeroes counters another consumer was
        still accumulating. Instead, take a snapshot before the run and
        diff with :meth:`delta_since` after: the difference is exactly
        the run's own work, with no reset.
        """
        return self.to_dict()

    def delta_since(self, before: dict) -> dict:
        """The counter movement since *before* (a :meth:`snapshot`)."""
        return stats_delta(before, self.to_dict())


def stats_delta(before: dict, after: dict) -> dict:
    """Field-wise difference of two stats payloads.

    Nested dicts (e.g. ``ReteStats.fallback_reasons``) diff recursively;
    keys absent from *before* count from zero. Seconds stay floats
    (re-rounded so accumulated float error never leaks into reports).
    """
    result: dict = {}
    for name, value in after.items():
        if isinstance(value, dict):
            result[name] = stats_delta(before.get(name, {}), value)
        else:
            delta = value - before.get(name, 0)
            if isinstance(delta, float):
                delta = round(delta, _SECONDS_DIGITS)
            result[name] = delta
    return result


def render_stats(sections: dict[str, dict]) -> str:
    """Render named stats sections the way the CLI ``--stats`` flag does.

    *sections* maps a section title (e.g. ``"query planner"``) to a
    ``to_dict()`` payload. Nested dicts (the analysis engine's
    ``timings``) indent one level deeper.
    """
    lines: list[str] = []
    for title, data in sections.items():
        lines.append(f"\n== {title} stats ==")
        for key, value in data.items():
            if isinstance(value, dict):
                if value:
                    lines.append(f"  {key}:")
                    for sub_key, sub_value in value.items():
                        lines.append(f"    {sub_key}: {sub_value}")
            else:
                lines.append(f"  {key}: {value}")
    return "\n".join(lines)
