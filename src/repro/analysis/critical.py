"""Critical-instance termination analysis and non-termination witnesses.

MFA-style acyclicity checks (and the restricted-chase non-termination
conditions of Gerlach/Carral, "Do Repeat Yourself") run the program
from a canonical *critical instance* — one row per table filled with a
fresh marked constant — and watch what the rules can derive. This
module adapts the idea to production rules:

* :class:`CriticalInstanceAnalyzer` runs an abstract saturation over a
  finite value lattice (the program's own literals plus the marked
  constant ``⋆``). Every table starts with one all-``⋆`` row; rule
  actions add abstract rows (assignments that do not fold go to
  ``⋆``); tables only grow (deletes are ignored — sound for the
  positive ``exists`` conditions rules use). Two firing regimes are
  tracked: *phase 0*, where the user's initial transition is arbitrary
  (transition slices are unconstrained), and the *tail*, where every
  transition row must come from some rule's own writes. A rule that
  cannot fire in the tail at the saturated fixpoint can act at most
  finitely often in any real run, so removing the tail-dead rules from
  a refined cycle certifies it (``critical-instance`` verdict).

* :func:`find_witness` searches for a *concrete* non-terminating run:
  it seeds a small instance with values straddling the program's
  comparison thresholds, replays user statements that trigger the
  cycle's rules, and either finds an exact state repetition in
  ``explore()`` (a proof — transitions are deterministic functions of
  the state) or a pumped period: a repeating rule sequence whose
  per-period state growth is constant and non-zero. Witnesses are only
  emitted after :func:`replay_witness` re-executes them successfully,
  so every RPL010 trace replays to a genuine loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.derived import DerivedDefinitions
from repro.analysis.stratification import (
    Discharge,
    substitute_columns,
    summarize_writes,
)
from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.lang import ast
from repro.lint.folding import unsatisfiable
from repro.rules.events import TriggerEvent
from repro.runtime.exec_graph import explore
from repro.runtime.processor import RuleProcessor
from repro.schema.catalog import Schema, schema_from_spec

__all__ = [
    "STAR",
    "CriticalAnalysis",
    "CriticalInstanceAnalyzer",
    "Witness",
    "ReplayResult",
    "find_witness",
    "replay_witness",
    "schema_to_spec",
]


class _Star:
    """The marked constant: an unknown value covering every concrete one."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "⋆"


STAR = _Star()


def schema_to_spec(schema: Schema) -> dict[str, list[str]]:
    """Serialize a schema to the ``schema_from_spec`` dict form."""
    return {
        table.name: [
            f"{name}:{table.column(name).type.value}"
            for name in table.column_names
        ]
        for table in schema
    }


# ----------------------------------------------------------------------
# Abstract saturation
# ----------------------------------------------------------------------

#: per-table abstract row budget before widening that table to ``⋆``
DEFAULT_ROW_CAP = 128
#: saturation round budget (each round sweeps every rule once)
DEFAULT_ROUND_CAP = 40


class _AbstractState:
    """Monotone abstract database + the tail transition slices."""

    def __init__(self, schema: Schema, row_cap: int) -> None:
        self.schema = schema
        self.row_cap = row_cap
        self.columns = {
            table.name: table.column_names for table in schema
        }
        # the critical instance: one all-⋆ row per table
        self.tables: dict[str, set[tuple]] = {
            name: {tuple(STAR for _ in cols)}
            for name, cols in self.columns.items()
        }
        #: net inserted rows written by rules (the tail ``inserted`` slice)
        self.inserted: dict[str, set[tuple]] = {}
        #: post-images of rule updates (the tail ``new_updated`` slice)
        self.updated_posts: dict[str, set[tuple]] = {}
        #: events rule actions have performed
        self.events: set[TriggerEvent] = set()
        #: tables/slices widened to ⋆ after exceeding the row budget
        self.widened: set[tuple[str, str]] = set()

    def fingerprint(self) -> tuple:
        return (
            tuple(len(self.tables[t]) for t in sorted(self.tables)),
            tuple(sorted((t, len(r)) for t, r in self.inserted.items())),
            tuple(sorted((t, len(r)) for t, r in self.updated_posts.items())),
            len(self.events),
            tuple(sorted(self.widened)),
        )

    def _add(self, store: dict[str, set[tuple]], kind: str, table: str, row):
        if (table, kind) in self.widened:
            return
        rows = store.setdefault(table, set())
        rows.add(row)
        if len(rows) > self.row_cap:
            # widen: a single all-⋆ row covers everything
            store[table] = {tuple(STAR for _ in self.columns[table])}
            self.widened.add((table, kind))

    def add_table_row(self, table: str, row: tuple) -> None:
        self._add(self.tables, "table", table, row)

    def add_inserted(self, table: str, row: tuple) -> None:
        self._add(self.inserted, "inserted", table, row)

    def add_updated_post(self, table: str, row: tuple) -> None:
        self._add(self.updated_posts, "new_updated", table, row)


@dataclass
class CriticalAnalysis:
    """Saturation outcome: which rules can still fire in the tail."""

    #: rules that can fire at all from the critical instance
    fired: frozenset[str]
    #: rules that can fire in the tail (triggered by, and satisfied by,
    #: writes of tail-live rules only) — the greatest such fixpoint
    tail_live: frozenset[str]
    #: some table/slice exceeded the row budget and was widened to ⋆
    widened: bool
    rounds: int = 0

    def certify_component(
        self, component, stratification, analyzer
    ) -> Discharge | None:
        """Discharge a cyclic component by removing tail-dead rules
        (they act finitely often) and finishing with the stratified
        fixpoint on whatever remains."""
        members = frozenset(component)
        dead = members - self.tail_live
        if not dead:
            return None
        remaining = members - dead
        sub = stratification.refined.restricted_to(remaining)
        if not sub.cyclic_components():
            return Discharge(
                dead,
                "tail-dead under critical-instance saturation: "
                + ", ".join(sorted(dead)),
            )
        follow_up = stratification.certify_component(remaining, analyzer)
        if follow_up is not None:
            return Discharge(
                dead | follow_up.rules,
                "tail-dead rules "
                + ", ".join(sorted(dead))
                + " + "
                + follow_up.detail,
            )
        return None


class CriticalInstanceAnalyzer:
    """Abstract saturation from the critical instance."""

    def __init__(
        self,
        ruleset,
        definitions: DerivedDefinitions | None = None,
        *,
        row_cap: int = DEFAULT_ROW_CAP,
        round_cap: int = DEFAULT_ROUND_CAP,
    ) -> None:
        self.ruleset = ruleset
        self.definitions = definitions or DerivedDefinitions(ruleset)
        self.row_cap = row_cap
        self.round_cap = round_cap
        self._summaries = {
            rule.name: summarize_writes(rule) for rule in ruleset
        }
        self._unsat = {
            rule.name: (
                rule.condition is not None
                and unsatisfiable(rule.condition) is not None
            )
            for rule in ruleset
        }

    # ------------------------------------------------------------------

    def analyze(self) -> CriticalAnalysis:
        state = _AbstractState(self.ruleset.schema, self.row_cap)
        fired: set[str] = set()
        rounds = 0
        for rounds in range(1, self.round_cap + 1):
            before = state.fingerprint()
            grew = False
            for rule in self.ruleset:
                if self._unsat[rule.name]:
                    continue
                can_fire = self._possibly_true(
                    rule, rule.condition, state, tail=False
                ) or self._tail_fireable(rule, state)
                if can_fire:
                    if rule.name not in fired:
                        fired.add(rule.name)
                        grew = True
                    self._apply_actions(rule, state)
            if state.fingerprint() == before and not grew:
                break

        # Greatest fixpoint: a rule is tail-live only when its triggers
        # and its condition can be sustained by tail-live rules' writes.
        live = {name for name in fired if self._tail_fireable(
            self.ruleset.rule(name), state
        )}
        while True:
            events: set[TriggerEvent] = set()
            for name in live:
                events |= self._summaries[name].events
            next_live = {
                name
                for name in live
                if self.ruleset.rule(name).triggered_by & events
            }
            if next_live == live:
                break
            live = next_live

        return CriticalAnalysis(
            fired=frozenset(fired),
            tail_live=frozenset(live),
            widened=bool(state.widened),
            rounds=rounds,
        )

    # ------------------------------------------------------------------
    # Abstract firing
    # ------------------------------------------------------------------

    def _tail_fireable(self, rule, state: _AbstractState) -> bool:
        if self._unsat[rule.name]:
            return False
        if not (rule.triggered_by & state.events):
            return False
        return self._possibly_true(rule, rule.condition, state, tail=True)

    def _possibly_true(self, rule, expr, state, *, tail: bool) -> bool:
        """Over-approximate satisfiability of *expr* at consideration
        time: True unless provably false in the abstraction."""
        if expr is None:
            return True
        if isinstance(expr, ast.BinaryOp) and expr.op == "and":
            return self._possibly_true(
                rule, expr.left, state, tail=tail
            ) and self._possibly_true(rule, expr.right, state, tail=tail)
        if isinstance(expr, ast.BinaryOp) and expr.op == "or":
            return self._possibly_true(
                rule, expr.left, state, tail=tail
            ) or self._possibly_true(rule, expr.right, state, tail=tail)
        if isinstance(expr, ast.Exists) and not expr.negated:
            return self._exists_possibly(rule, expr.subquery, state, tail)
        if isinstance(expr, (ast.Exists, ast.UnaryOp)):
            return True  # negations: no definite-falsity tracking
        # leaf comparison: the folding/interval engine decides
        return unsatisfiable(expr) is None

    def _slice_rows(self, rule, kind: str, state, tail: bool):
        """Abstract rows of a transition slice; ``None`` means TOP
        (unknown contents, e.g. the arbitrary user transition)."""
        table = rule.table
        if not tail:
            return None
        if kind == "inserted":
            if (table, "inserted") in state.widened:
                return None
            return state.inserted.get(table, set())
        if kind == "new_updated":
            if (table, "new_updated") in state.widened:
                return None
            return state.updated_posts.get(table, set())
        if kind == "old_updated":
            if any(
                event.kind == "U" and event.table == table
                for event in state.events
            ):
                return state.tables.get(table, set())
            return set()
        # deleted: pre-images of rule deletes — any current table row
        if any(
            event.kind == "D" and event.table == table
            for event in state.events
        ):
            return state.tables.get(table, set())
        return set()

    def _exists_possibly(self, rule, select, state, tail: bool) -> bool:
        if not select.is_star:
            for item in select.items:
                if any(
                    isinstance(node, ast.FuncCall)
                    for node in ast.walk_expression(item.expr)
                ):
                    # an ungrouped aggregate yields a row even over an
                    # empty source, so the empty-source shortcut and
                    # row refutation below would both be unsound
                    return True
        sources = []
        for table_ref in select.tables:
            name = table_ref.name.lower()
            if name in ast.TRANSITION_TABLE_NAMES:
                rows = self._slice_rows(rule, name, state, tail)
                columns = state.columns[rule.table]
            else:
                if (name, "table") in state.widened:
                    rows = None
                else:
                    rows = state.tables.get(name, set())
                columns = state.columns.get(name, ())
            if rows is not None and not rows:
                return False  # an empty source empties the product
            sources.append((table_ref, rows, columns))
        if select.where is None or select.group_by or select.having:
            return True
        if len(sources) != 1:
            return True  # joins: no row-level refutation attempted
        table_ref, rows, columns = sources[0]
        if rows is None:
            return True
        binding = table_ref.binding_name.lower()
        for row in rows:
            values = {
                column: value
                for column, value in zip(columns, row)
                if not isinstance(value, _Star)
            }
            substituted = substitute_columns(select.where, values, binding)
            if substituted is None:
                return True
            if unsatisfiable(substituted) is None:
                return True  # this row may satisfy W
        return False

    def _apply_actions(self, rule, state: _AbstractState) -> None:
        update_index: dict[str, int] = {}
        for action in rule.actions:
            if isinstance(action, ast.Insert):
                table = action.table.lower()
                state.events.add(TriggerEvent.insert(table))
                columns = state.columns[table]
                if action.query is not None:
                    row = tuple(STAR for _ in columns)
                    state.add_table_row(table, row)
                    state.add_inserted(table, row)
                    continue
                summary = self._summaries[rule.name]
                for values in summary.insert_rows.get(table, ()):
                    row = tuple(
                        values.get(column, STAR) for column in columns
                    )
                    state.add_table_row(table, row)
                    state.add_inserted(table, row)
            elif isinstance(action, ast.Delete):
                if action.where is not None and unsatisfiable(action.where):
                    continue
                state.events.add(TriggerEvent.delete(action.table))
                # tables never shrink in the abstraction
            elif isinstance(action, ast.Update):
                if action.where is not None and unsatisfiable(action.where):
                    continue
                table = action.table.lower()
                columns = state.columns[table]
                assigned = {}
                for assignment in action.assignments:
                    state.events.add(
                        TriggerEvent.update(table, assignment.column)
                    )
                    assigned[assignment.column.lower()] = None
                summary = self._summaries[rule.name]
                literal_sets = summary.update_assignments.get(table, ())
                # summaries list one entry per live update action on the
                # table, in action order — pair them up by index
                position = update_index.get(table, 0)
                update_index[table] = position + 1
                literals = (
                    literal_sets[position]
                    if position < len(literal_sets)
                    else {}
                )
                post_of = lambda row: tuple(
                    literals.get(column, STAR)
                    if column in assigned
                    else value
                    for column, value in zip(columns, row)
                )
                for row in list(state.tables.get(table, ())):
                    post = post_of(row)
                    state.add_table_row(table, post)
                    state.add_updated_post(table, post)
                # pending writes can be updated before the reader's
                # consideration: fold the variants into the slices
                for row in list(state.inserted.get(table, ())):
                    state.add_inserted(table, post_of(row))
                for row in list(state.updated_posts.get(table, ())):
                    state.add_updated_post(table, post_of(row))


# ----------------------------------------------------------------------
# Non-termination witnesses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A replayable non-terminating run.

    ``kind`` is ``"state-cycle"`` (replaying ``prefix`` then ``cycle``
    returns to an identical processor state — a proof of
    non-termination, since transitions are deterministic) or
    ``"pumped-growth"`` (the ``cycle`` rule sequence repeats with a
    constant non-zero state-growth per period — a strong sufficient
    condition, validated by replay).
    """

    kind: str
    component: tuple[str, ...]
    schema_spec: dict[str, list[str]]
    statements: tuple[str, ...]
    prefix: tuple[str, ...]
    cycle: tuple[str, ...]
    detail: str = ""
    rules_source: str | None = None

    @property
    def trace(self) -> tuple[str, ...]:
        return self.prefix + self.cycle

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "component": list(self.component),
            "schema": {
                table: list(columns)
                for table, columns in self.schema_spec.items()
            },
            "statements": list(self.statements),
            "prefix": list(self.prefix),
            "cycle": list(self.cycle),
            "detail": self.detail,
            "rules_source": self.rules_source,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Witness":
        return cls(
            kind=payload["kind"],
            component=tuple(payload.get("component", ())),
            schema_spec={
                table: list(columns)
                for table, columns in payload["schema"].items()
            },
            statements=tuple(payload["statements"]),
            prefix=tuple(payload["prefix"]),
            cycle=tuple(payload["cycle"]),
            detail=payload.get("detail", ""),
            rules_source=payload.get("rules_source"),
        )


@dataclass(frozen=True)
class ReplayResult:
    valid: bool
    reason: str
    steps: int = 0


def _render_value(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def _measure(database: Database) -> tuple[int, int]:
    """(total rows, total numeric mass) — strictly grows under pumping."""
    rows_total = 0
    mass = 0
    for table in database.schema:
        rows = database.table(table.name).value_tuples()
        rows_total += len(rows)
        for values in rows:
            for value in values:
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                mass += int(value)
    return rows_total, mass


def _candidate_values(ruleset) -> dict[str, list]:
    """Per-column seed values straddling the program's comparison
    thresholds (k-1, k, k+1 for every literal k compared against the
    column) plus the literals the program inserts."""
    per_column: dict[str, set] = {}

    def note(column: str, value) -> None:
        bucket = per_column.setdefault(column.lower(), set())
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if isinstance(value, str):
                bucket.add(value)
            return
        value = int(value)
        bucket.update((value - 1, value, value + 1))

    def scan_expression(expr) -> None:
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.BinaryOp) and node.op in (
                "=", "<>", "!=", "<", "<=", ">", ">=",
            ):
                left, right = node.left, node.right
                if isinstance(left, ast.ColumnRef) and isinstance(
                    right, ast.Literal
                ):
                    note(left.column, right.value)
                elif isinstance(right, ast.ColumnRef) and isinstance(
                    left, ast.Literal
                ):
                    note(right.column, left.value)
            elif isinstance(node, (ast.Exists, ast.InSubquery)):
                select = node.subquery
                if select.where is not None:
                    scan_expression(select.where)
            elif isinstance(node, ast.ScalarSubquery):
                if node.subquery.where is not None:
                    scan_expression(node.subquery.where)

    for rule in ruleset:
        if rule.condition is not None:
            scan_expression(rule.condition)
        for action in rule.actions:
            where = getattr(action, "where", None)
            if where is not None:
                scan_expression(where)
            if isinstance(action, ast.Insert) and action.query is None:
                columns = rule.schema.table(action.table).column_names
                for row in action.rows:
                    for column, expr in zip(columns, row):
                        if isinstance(expr, ast.Literal):
                            note(column, expr.value)
    return {
        column: sorted(values, key=lambda v: (isinstance(v, str), str(v)))
        for column, values in per_column.items()
    }


def _seed_statements(ruleset, component, rows_per_table: int) -> list[str]:
    """User statements that seed candidate rows and trigger every rule
    of the component at the initial transition."""
    candidates = _candidate_values(ruleset)
    schema = ruleset.schema
    tables = sorted({ruleset.rule(name).table for name in component})
    statements: list[str] = []

    def row_values(table: str, index: int) -> list:
        values = []
        for column in schema.table(table).column_names:
            pool = candidates.get(column.lower()) or [0, 1]
            column_type = schema.table(table).column(column).type.value
            typed = [
                v
                for v in pool
                if (isinstance(v, str)) == (column_type == "string")
            ]
            if not typed:
                typed = ["x"] if column_type == "string" else [0, 1]
            values.append(typed[index % len(typed)])
        return values

    for table in tables:
        for index in range(rows_per_table):
            rendered = ", ".join(
                _render_value(v) for v in row_values(table, index)
            )
            statements.append(f"insert into {table} values ({rendered})")

    for name in sorted(component):
        rule = ruleset.rule(name)
        kinds = {event.kind for event in rule.triggered_by}
        table = rule.table
        columns = schema.table(table).column_names
        if "U" in kinds:
            column = next(
                (
                    event.column
                    for event in sorted(rule.triggered_by)
                    if event.kind == "U"
                ),
                columns[0],
            )
            statements.append(f"update {table} set {column} = {column}")
        if "D" in kinds:
            values = row_values(table, 0)
            rendered = ", ".join(_render_value(v) for v in values)
            statements.append(f"insert into {table} values ({rendered})")
            statements.append(
                f"delete from {table} where {columns[0]} = "
                + _render_value(values[0])
            )
    return statements


def _build_processor(
    ruleset, statements, max_steps: int
) -> RuleProcessor:
    database = Database(ruleset.schema)
    processor = RuleProcessor(ruleset, database, max_steps=max_steps)
    for statement in statements:
        processor.execute_user(statement)
    return processor


def _follow(processor: RuleProcessor, labels) -> bool:
    """Drive *processor* along a recorded rule sequence; False when the
    trace deviates (a rule is not eligible where the recording said)."""
    for label in labels:
        eligible = processor.eligible_rules()
        if label not in eligible:
            return False
        processor.consider(label, eligible=eligible)
    return True


def find_witness(
    ruleset,
    component,
    *,
    rules_source: str | None = None,
    max_states: int = 400,
    max_steps: int = 300,
    max_period: int = 24,
) -> Witness | None:
    """Search for a replay-validated non-termination witness for a
    cyclic component. Returns ``None`` when no sufficient condition
    fires within the budgets (which proves nothing — see DESIGN.md).

    A search that cannot evaluate a rule (its condition or action
    raises an :class:`~repro.errors.ExecutionError` on the seeded
    instance, e.g. an unknown column) also finds no witness: the
    cycle's verdict stays unknown, and lint's reference checks report
    the rule itself.
    """
    if rules_source is None:
        rules_source = ruleset.source()
    try:
        return _search_witness(
            ruleset,
            frozenset(component),
            rules_source,
            max_states=max_states,
            max_steps=max_steps,
            max_period=max_period,
        )
    except ExecutionError:
        return None


def _search_witness(
    ruleset,
    members: frozenset[str],
    rules_source: str,
    *,
    max_states: int,
    max_steps: int,
    max_period: int,
) -> Witness | None:
    schema_spec = schema_to_spec(ruleset.schema)
    for rows_per_table in (1, 2):
        try:
            statements = _seed_statements(ruleset, members, rows_per_table)
            probe = _build_processor(ruleset, statements, max_steps)
        except Exception:
            return None

        # 1) exact state repetition in the (deduplicated) state graph —
        # a proof, since consideration is a deterministic transition.
        graph = explore(
            probe,
            max_states=max_states,
            max_depth=max_steps,
            max_paths=1,
        )
        if graph.has_cycle:
            path = graph.looping_path()
            if path is not None:
                prefix, cycle = path
                witness = Witness(
                    kind="state-cycle",
                    component=tuple(sorted(members)),
                    schema_spec=schema_spec,
                    statements=tuple(statements),
                    prefix=prefix,
                    cycle=cycle,
                    detail=(
                        "state repeats after "
                        + " → ".join(cycle)
                        + f" (prefix of {len(prefix)} considerations)"
                    ),
                    rules_source=rules_source,
                )
                if replay_witness(witness, ruleset=ruleset).valid:
                    return witness
        if graph.terminates:
            continue  # this seeding quiesces everywhere; try a richer one

        # 2) pumped growth along the deterministic first-eligible order.
        witness = _pumped_witness(
            ruleset,
            members,
            statements,
            schema_spec,
            rules_source,
            max_steps=max_steps,
            max_period=max_period,
        )
        if witness is not None:
            return witness
    return None


def _pumped_witness(
    ruleset,
    members,
    statements,
    schema_spec,
    rules_source,
    *,
    max_steps: int,
    max_period: int,
) -> Witness | None:
    processor = _build_processor(ruleset, statements, max_steps * 2)
    labels: list[str] = []
    measures: list[tuple[int, int]] = []
    for _ in range(max_steps):
        eligible = processor.eligible_rules()
        if not eligible:
            return None  # quiesced: nothing to pump
        label = eligible[0]
        processor.consider(label, eligible=eligible)
        labels.append(label)
        measures.append(_measure(processor.database))

    for period in range(1, max_period + 1):
        if len(labels) < 3 * period:
            break
        window = labels[-period:]
        if (
            labels[-2 * period : -period] != window
            or labels[-3 * period : -2 * period] != window
        ):
            continue
        last, mid, first = (
            measures[-1],
            measures[-1 - period],
            measures[-1 - 2 * period],
        )
        delta = (last[0] - mid[0], last[1] - mid[1])
        if delta == (0, 0) or (mid[0] - first[0], mid[1] - first[1]) != delta:
            continue
        # Shrink the prefix to the earliest point the label sequence
        # turns periodic — a 300-step probe run makes an unreadable
        # trace. Replay-validation guards the shrink: early rounds may
        # pump a different (warm-up) delta, in which case fall back to
        # the full probe prefix, which validated the detection above.
        start = len(labels) - period
        while start > 0 and labels[start - 1] == labels[start - 1 + period]:
            start -= 1
        detail = (
            f"period {period} pump "
            + " → ".join(window)
            + f" grows state by {delta} per round"
        )
        for prefix_end in dict.fromkeys((start, len(labels) - period)):
            witness = Witness(
                kind="pumped-growth",
                component=tuple(sorted(members)),
                schema_spec=schema_spec,
                statements=tuple(statements),
                prefix=tuple(labels[:prefix_end]),
                cycle=tuple(labels[prefix_end : prefix_end + period]),
                detail=detail,
                rules_source=rules_source,
            )
            if replay_witness(witness, ruleset=ruleset).valid:
                return witness
    return None


def replay_witness(
    witness: Witness,
    *,
    ruleset=None,
    periods: int = 4,
) -> ReplayResult:
    """Re-execute a witness and check it actually loops.

    ``state-cycle``: after the prefix, one traversal of the cycle must
    return to a state with an identical state key — then the run is
    periodic forever. ``pumped-growth``: *periods* further traversals
    must each stay eligible and grow the measure by the same non-zero
    delta.
    """
    if ruleset is None:
        if witness.rules_source is None:
            return ReplayResult(
                False, "witness embeds no rules and none were supplied"
            )
        from repro.rules.ruleset import RuleSet

        schema = schema_from_spec(witness.schema_spec)
        ruleset = RuleSet.parse(witness.rules_source, schema)

    budget = len(witness.prefix) + len(witness.cycle) * (periods + 1) + 10
    try:
        processor = _build_processor(
            ruleset, witness.statements, max_steps=budget
        )
    except Exception as error:
        return ReplayResult(False, f"setup failed: {error}")

    steps = 0
    if not _follow(processor, witness.prefix):
        return ReplayResult(False, "prefix deviates", steps)
    steps += len(witness.prefix)

    if witness.kind == "state-cycle":
        anchor = processor.state_key()
        if not _follow(processor, witness.cycle):
            return ReplayResult(False, "cycle deviates", steps)
        steps += len(witness.cycle)
        if processor.state_key() != anchor:
            return ReplayResult(
                False, "state does not repeat after the cycle", steps
            )
        return ReplayResult(
            True,
            f"state repeats every {len(witness.cycle)} considerations",
            steps,
        )

    # pumped-growth
    previous = _measure(processor.database)
    delta: tuple[int, int] | None = None
    for _ in range(periods):
        if not _follow(processor, witness.cycle):
            return ReplayResult(False, "pump deviates", steps)
        steps += len(witness.cycle)
        current = _measure(processor.database)
        step_delta = (
            current[0] - previous[0],
            current[1] - previous[1],
        )
        if step_delta == (0, 0):
            return ReplayResult(False, "pump stops growing", steps)
        if delta is not None and step_delta != delta:
            return ReplayResult(False, "pump growth is not constant", steps)
        delta = step_delta
        previous = current
    return ReplayResult(
        True,
        f"{periods} extra pump rounds each grow state by {delta}",
        steps,
    )
