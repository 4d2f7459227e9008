"""Execution-graph exploration (Section 4).

An execution graph has states ``S = (D, TR)`` — database state plus
triggered rules with their transitions — an initial state created by the
user-generated initial transition, and edges labeled with rules, one per
eligible choice. Exploring all branches yields ground truth for the
three properties the paper analyzes statically:

* **termination** — no infinite path: in the explored (finite,
  deduplicated) graph, no reachable cycle and no budget overrun;
* **confluence** — at most one final state: all paths end in the same
  database state;
* **observable determinism** — a unique stream of observable actions
  over all complete paths.

Observable streams are path-dependent (not a function of the state), so
the explorer collects them from the complete paths that lead from the
initial state to a final one. What one edge emits *is* a function of
its source state and rule: a rule's actions read only the database and
the pending transition on its own table, both part of the state key,
and select payloads are sorted. So exploration records each edge's
observable actions once, while it builds the graph, and then walks the
complete paths of the finished acyclic graph over those recorded edges,
concatenating what each edge emitted: one consideration per edge, and
no path is replayed on a live processor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ExplorationLimitExceeded
from repro.runtime.observer import ObservableAction
from repro.runtime.processor import RuleProcessor


@dataclass
class ExecutionGraph:
    """The result of exhaustive exploration from one initial state."""

    #: canonical key of the initial state
    initial: tuple
    #: state key -> list of (rule label, successor state key)
    edges: dict[tuple, list[tuple[str, tuple]]] = field(default_factory=dict)
    #: keys of final states (no triggered rules)
    final_states: set[tuple] = field(default_factory=set)
    #: canonical database state for each final state key
    final_databases: dict[tuple, tuple] = field(default_factory=dict)
    #: distinct full observable streams over all complete paths (over
    #: the first ``max_paths`` paths, depth first, when
    #: ``streams_truncated``)
    observable_streams: set[tuple[ObservableAction, ...]] = field(
        default_factory=set
    )
    #: True if exploration saw a cycle (an infinite path exists)
    has_cycle: bool = False
    #: True if exploration hit its state/depth budget (result is partial)
    truncated: bool = False
    #: True if there are more complete paths than ``max_paths`` (streams
    #: are partial)
    streams_truncated: bool = False
    #: duplicate states merged during exploration: a consider() produced
    #: a state whose fingerprint (memoized Database.canonical() plus the
    #: per-rule pending transitions) was already seen, so the branch was
    #: folded into the existing node instead of re-explored
    states_deduped: int = 0
    #: complete paths walked by the stream pass, capped at the
    #: explorer's ``max_paths`` (0 when the pass was skipped because
    #: the graph is cyclic or truncated)
    _path_count: int = 0

    @property
    def state_count(self) -> int:
        return len(self.edges)

    @property
    def terminates(self) -> bool:
        """True iff every path is finite (only meaningful if not truncated)."""
        return not self.has_cycle and not self.truncated

    @property
    def is_confluent(self) -> bool:
        """At most one final database state (Section 6's definition).

        Only a guaranteed verdict when the graph is complete
        (``terminates`` is True).
        """
        return len(set(self.final_databases.values())) <= 1

    @property
    def is_observably_deterministic(self) -> bool:
        """A single stream of observable actions across all paths."""
        return len(self.observable_streams) <= 1

    def paths_to_final(self) -> int:
        """The exact number of complete paths, capped only by the
        explorer's ``max_paths``: ``min(paths, max_paths)``, with
        ``streams_truncated`` set iff the cap cut it. 0 when the graph
        is cyclic or truncated (no stream pass ran)."""
        return self._path_count

    def verdicts(self) -> tuple[bool | None, bool | None, bool | None]:
        """``(terminates, confluent, observably_deterministic)``, each
        None when this graph cannot decide it.

        A cycle among explored states is an infinite execution, so it
        decides non-termination even in a truncated graph; a truncated
        graph decides nothing else. Confluence and observable
        determinism are defined over terminating executions. When the
        stream pass hit ``max_paths``, the streams it kept are those of
        real complete paths: two of them refute observable determinism,
        fewer decide nothing.
        """
        if self.has_cycle:
            return False, None, None
        if self.truncated:
            return None, None, None
        undecided = self.streams_truncated and len(self.observable_streams) <= 1
        return (
            True,
            self.is_confluent,
            None if undecided else self.is_observably_deterministic,
        )

    def looping_path(self) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
        """A concrete path witnessing ``has_cycle``.

        Returns ``(prefix, cycle)``: rule labels leading from the
        initial state to some state ``s``, then labels returning to
        ``s``. Replaying ``prefix`` followed by ``cycle`` repeatedly is
        an infinite execution. ``None`` when no reachable cycle exists.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[tuple, int] = {}
        position: dict[tuple, int] = {}
        labels: list[str] = []
        if self.initial not in self.edges:
            return None
        stack: list[tuple[tuple, int]] = [(self.initial, 0)]
        color[self.initial] = GRAY
        position[self.initial] = 0
        while stack:
            node, index = stack[-1]
            successors = self.edges.get(node, [])
            if index < len(successors):
                stack[-1] = (node, index + 1)
                label, child = successors[index]
                child_color = color.get(child, WHITE)
                if child_color == GRAY:
                    split = position[child]
                    return tuple(labels[:split]), tuple(labels[split:] + [label])
                if child_color == WHITE and child in self.edges:
                    color[child] = GRAY
                    labels.append(label)
                    position[child] = len(labels)
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()
                if stack:
                    labels.pop()
        return None

    def stats(self) -> dict:
        """Exploration counters, machine-readable (the CLI ``--json``
        surface; mirrors the analysis engine's stats section)."""
        terminates, confluent, deterministic = self.verdicts()
        return {
            "states": self.state_count,
            "states_deduped": self.states_deduped,
            "final_states": len(self.final_states),
            "distinct_final_databases": len(set(self.final_databases.values())),
            "observable_streams": len(self.observable_streams),
            "paths_to_final": self.paths_to_final(),
            "terminates": terminates,
            "confluent": confluent,
            "observably_deterministic": deterministic,
            "has_cycle": self.has_cycle,
            "truncated": self.truncated,
            "streams_truncated": self.streams_truncated,
        }


def explore(
    processor: RuleProcessor,
    max_states: int = 2_000,
    max_depth: int = 200,
    max_paths: int = 20_000,
    on_limit: str = "mark",
) -> ExecutionGraph:
    """Explore every execution order from *processor*'s current state.

    The processor should already hold the initial transition (user
    operations executed, rules not yet processed). It is forked, never
    mutated.

    ``on_limit`` is ``"mark"`` (set ``truncated`` and return the partial
    graph) or ``"raise"`` (raise :class:`ExplorationLimitExceeded`).
    """
    initial = processor.fork()
    initial_key = initial.state_key()

    graph = ExecutionGraph(initial=initial_key)

    # Phase 1: build the deduplicated state graph (termination and
    # confluence), recording what each edge emits. Frontier entries
    # carry the state key computed at enqueue time, so each state's key
    # is built once.
    frontier: deque[tuple[RuleProcessor, int, tuple]] = deque(
        [(initial, 0, initial_key)]
    )
    # Maps each key to itself: a successor that merges into a seen state
    # is recorded under the stored key object, so later lookups of it
    # (the cycle DFS, the path walk) compare by identity, not fragment
    # by fragment.
    seen: dict[tuple, tuple] = {initial_key: initial_key}
    # state key -> (successor key, observable actions) of each edge
    emitted: dict[tuple, list[tuple[tuple, tuple[ObservableAction, ...]]]] = {}

    while frontier:
        current, depth, key = frontier.popleft()
        eligible = current.eligible_rules()
        if not eligible:
            graph.final_states.add(key)
            graph.final_databases[key] = current.database.canonical()
            continue

        if len(graph.edges) >= max_states:
            if on_limit == "raise":
                raise ExplorationLimitExceeded(max_states)
            graph.truncated = True
            break
        if depth >= max_depth:
            if on_limit == "raise":
                raise ExplorationLimitExceeded(max_depth)
            graph.truncated = True
            break

        successors: list[tuple[str, tuple]] = []
        steps: list[tuple[tuple, tuple[ObservableAction, ...]]] = []
        before = len(current.observables)
        for rule_name in eligible:
            # The fork shares the parent's pending slices, canonical
            # fragments, and COW database pages; consider()
            # reuses the eligibility already computed on this state.
            child = current.fork()
            child.consider(rule_name, eligible=eligible)
            child_key = child.state_key()
            known = seen.get(child_key)
            if known is None:
                seen[child_key] = child_key
                frontier.append((child, depth + 1, child_key))
            else:
                child_key = known
                graph.states_deduped += 1
            successors.append((rule_name, child_key))
            steps.append((child_key, tuple(child.observables[before:])))
        graph.edges[key] = successors
        emitted[key] = steps

    graph.has_cycle = graph.looping_path() is not None

    # Phase 2: path count and observable streams from a walk over the
    # recorded edges. Skipped when the graph is cyclic or truncated
    # (streams would be unbounded or partial).
    if not graph.has_cycle and not graph.truncated:
        _walk_paths(graph, emitted, tuple(processor.observables), max_paths)

    return graph


def _walk_paths(
    graph: ExecutionGraph,
    emitted: dict[tuple, list[tuple[tuple, tuple[ObservableAction, ...]]]],
    prior: tuple[ObservableAction, ...],
    max_paths: int,
) -> None:
    """Fill in the path count and observable streams of the complete,
    acyclic graph. No rule is considered again.

    Walks complete paths depth first from the initial state (the last
    eligible rule is followed first), each stream being *prior* — the
    actions the processor emitted before exploring — followed by what
    every edge on the path emitted. The walk stops after *max_paths*
    paths. Every partial path still on the stack then ends in at least
    one more complete path (the graph is complete and acyclic), so the
    cap cut the count iff the stack is non-empty.
    """
    streams: set[tuple[ObservableAction, ...]] = set()
    paths = 0
    stack: list[tuple[tuple, tuple]] = [(graph.initial, prior)]
    while stack:
        key, stream = stack.pop()
        steps = emitted.get(key)
        if steps is None:  # not expanded, so final: the graph is complete
            streams.add(stream)
            paths += 1
            if paths >= max_paths:
                break
            continue
        stack.extend((child, stream + actions) for child, actions in steps)
    graph._path_count = paths
    graph.streams_truncated = bool(stack)
    graph.observable_streams = streams


def explore_ruleset(
    ruleset,
    database,
    user_statements: list,
    **kwargs,
) -> ExecutionGraph:
    """Convenience wrapper: build a processor, run the user statements as
    the initial transition, and explore."""
    processor = RuleProcessor(ruleset, database)
    for statement in user_statements:
        processor.execute_user(statement)
    return explore(processor, **kwargs)
