"""``repro.lint`` — static diagnostics over parsed rule programs.

The lint subsystem runs a pipeline of registered passes over a bound
:class:`~repro.rules.ruleset.RuleSet` and reports severity-ranked
findings with stable codes (``RPL001``...). It shares the analysis
substrate — derived definitions, attribute-level dataflow, Section 9
reachability, the termination heuristics — so its findings are exactly
consistent with what the Section 5–9 analyses conclude (or silently
tolerate).

Programmatic entry point::

    from repro.lint import lint_ruleset
    report = lint_ruleset(ruleset, source=text, path="my.rules",
                          entry_tables={"orders"})
    for diagnostic in report.diagnostics:
        print(diagnostic.render(report.path))
    exit(1 if report.has_errors else 0)

``repro lint`` (see :mod:`repro.cli`) is the command-line face, with
``--format text|json|sarif``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.derived import DerivedDefinitions
from repro.lint.diagnostics import (
    DIAGNOSTIC_CODES,
    CodeInfo,
    Diagnostic,
    Severity,
)
from repro.lint.passes import LINT_PASSES, LintContext
from repro.lint.sarif import to_sarif
from repro.rules.ruleset import RuleSet

__all__ = [
    "DIAGNOSTIC_CODES",
    "LINT_PASSES",
    "CodeInfo",
    "Diagnostic",
    "LintContext",
    "LintReport",
    "Severity",
    "lint_ruleset",
    "rule_source_lines",
]

_CREATE_RULE = re.compile(r"^\s*create\s+rule\s+([A-Za-z_][A-Za-z0-9_]*)", re.I)


def rule_source_lines(source: str) -> dict[str, int]:
    """Map each rule name to the 1-based line of its ``create rule``."""
    lines: dict[str, int] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _CREATE_RULE.match(line)
        if match:
            lines.setdefault(match.group(1).lower(), number)
    return lines


@dataclass
class LintReport:
    """The collated outcome of one lint run."""

    diagnostics: list[Diagnostic]
    path: str | None = None
    #: codes that were executed (the full registry, for SARIF tooling)
    codes: tuple[str, ...] = field(
        default_factory=lambda: tuple(sorted(DIAGNOSTIC_CODES))
    )

    @property
    def has_errors(self) -> bool:
        return any(
            diagnostic.severity is Severity.ERROR
            for diagnostic in self.diagnostics
        )

    def counts(self) -> dict[str, int]:
        counts = {severity.value: 0 for severity in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.value] += 1
        return counts

    def render_text(self) -> str:
        if not self.diagnostics:
            return f"{self.path or '<rules>'}: no findings"
        lines = [
            diagnostic.render(self.path) for diagnostic in self.diagnostics
        ]
        counts = self.counts()
        lines.append(
            f"{len(self.diagnostics)} finding(s): "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['note']} note(s)"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "path": self.path,
            "summary": self.counts(),
            "diagnostics": [
                diagnostic.to_dict() for diagnostic in self.diagnostics
            ],
        }

    def to_sarif(self) -> dict:
        return to_sarif(self.diagnostics, artifact_uri=self.path)


def lint_ruleset(
    ruleset: RuleSet,
    *,
    source: str | None = None,
    path: str | None = None,
    entry_tables: Iterable[str] | None = None,
    certified_termination: Iterable[str] = (),
    only: Iterable[str] | None = None,
) -> LintReport:
    """Run every registered lint pass over *ruleset*.

    ``source``/``path`` attach physical locations to the findings.
    ``entry_tables`` declares which tables user transactions may touch
    (Section 9); without it RPL001 cannot fire, and an unknown table in
    it raises :class:`~repro.errors.SchemaError`, as an unknown rule in
    ``certified_termination`` raises :class:`~repro.errors.RuleError`.
    ``only`` restricts the run to a subset of diagnostic codes.
    """
    context = LintContext(
        ruleset=ruleset,
        definitions=DerivedDefinitions(ruleset),
        entry_tables=(
            frozenset(
                ruleset.schema.table(table).name for table in entry_tables
            )
            if entry_tables is not None
            else None
        ),
        certified_termination=frozenset(
            ruleset.rule(name).name for name in certified_termination
        ),
        lines=rule_source_lines(source) if source else {},
        source=source,
    )
    wanted = frozenset(only) if only is not None else None
    diagnostics: list[Diagnostic] = []
    for code in sorted(LINT_PASSES):
        if wanted is not None and code not in wanted:
            continue
        diagnostics.extend(LINT_PASSES[code](context))
    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(diagnostics=diagnostics, path=path)
