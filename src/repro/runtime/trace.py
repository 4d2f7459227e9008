"""Human-readable rule-processing traces.

The paper motivates its analyses with how opaque rule processing is to
the programmer ("unstructured, unpredictable, and often
nondeterministic behavior ... can be a nightmare"). A trace makes one
concrete run legible: which rules were triggered by what, which was
chosen, what its condition saw, and what its action did.

:func:`trace_run` drives a processor to quiescence exactly like
:meth:`RuleProcessor.run` while recording a structured
:class:`TraceEvent` per step; :func:`render_trace` turns the events
into indented text.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.processor import ProcessingResult, RuleProcessor
from repro.transitions.net_effect import NetEffect


@dataclass(frozen=True)
class TraceEvent:
    """One step of rule processing.

    ``kind`` is ``"consider"``, ``"rollback"`` or ``"quiescent"``.
    """

    kind: str
    step: int
    rule: str = ""
    triggered: tuple[str, ...] = ()
    eligible: tuple[str, ...] = ()
    transition_summary: str = ""
    condition_was_true: bool | None = None
    operations_performed: int = 0
    observables: tuple[str, ...] = ()


def summarize_net_effect(net: NetEffect) -> str:
    """One line: per-table insert/delete/update counts."""
    parts = []
    for table in net.tables:
        effect = net.table(table)
        counts = []
        if effect.inserted:
            counts.append(f"+{len(effect.inserted)}")
        if effect.deleted:
            counts.append(f"-{len(effect.deleted)}")
        if effect.updated:
            counts.append(f"~{len(effect.updated)}")
        parts.append(f"{table}({' '.join(counts)})")
    return ", ".join(parts) or "(empty)"


def trace_run(
    processor: RuleProcessor,
) -> tuple[ProcessingResult, list[TraceEvent]]:
    """Run *processor* to quiescence, returning the result and a trace."""
    events: list[TraceEvent] = []
    steps = []
    observables_before = len(processor.observables)
    step = 0

    while True:
        triggered = processor.triggered_rules()
        eligible = processor.eligible_rules()
        if not eligible:
            outcome = (
                "rolled_back" if processor.rolled_back else "quiescent"
            )
            events.append(
                TraceEvent(kind=outcome, step=step, triggered=triggered)
            )
            processor.mark_assertion_point()
            return (
                ProcessingResult(
                    outcome=outcome,
                    steps=steps,
                    observables=processor.observables[observables_before:],
                ),
                events,
            )
        if step >= processor.max_steps:
            raise RuleProcessingLimitExceeded(processor.max_steps)

        chosen = processor.strategy.choose(eligible)
        transition = summarize_net_effect(
            processor.pending_net_effect(chosen)
        )
        observables_at = len(processor.observables)
        outcome = processor.consider(chosen, eligible=eligible)
        steps.append(outcome)
        new_observables = tuple(
            str(action)
            for action in processor.observables[observables_at:]
        )
        events.append(
            TraceEvent(
                kind="rollback" if outcome.rolled_back else "consider",
                step=step,
                rule=chosen,
                triggered=triggered,
                eligible=eligible,
                transition_summary=transition,
                condition_was_true=outcome.condition_was_true,
                operations_performed=outcome.operations_performed,
                observables=new_observables,
            )
        )
        step += 1


def render_trace(events: list[TraceEvent]) -> str:
    """Render a trace as indented text, one block per step."""
    lines: list[str] = []
    for event in events:
        if event.kind in ("quiescent", "rolled_back"):
            lines.append(f"[{event.step}] {event.kind}")
            continue
        header = f"[{event.step}] consider {event.rule}"
        if event.kind == "rollback":
            header += "  -> ROLLBACK"
        lines.append(header)
        lines.append(
            f"      triggered: {', '.join(event.triggered)}"
            + (
                f"   eligible: {', '.join(event.eligible)}"
                if event.eligible != event.triggered
                else ""
            )
        )
        lines.append(f"      transition: {event.transition_summary}")
        if event.condition_was_true is False:
            lines.append("      condition: false (no action)")
        elif event.operations_performed:
            lines.append(
                f"      action: {event.operations_performed} tuple "
                "operations"
            )
        for observable in event.observables:
            lines.append(f"      observable: {observable}")
    return "\n".join(lines)
