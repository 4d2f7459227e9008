"""Span timing around the program's public entry points (traced runs only).

The benchmark measures layers from the outside: :func:`install` replaces
a fixed list of public functions and methods of ``repro`` with wrappers
that time each call as a span. Nothing inside the program changes, and
an untraced run never imports this module's wrappers.

Spans nest along the call stack. Each thread keeps its own stack, and
spans aggregate in memory into a tree keyed by path (root → ... → span)
holding ``count``, ``total`` and ``self`` seconds, where self time is a
span's duration minus the part its child spans cover. The tree is read
once, when the run ends.

(The module is called ``spans`` rather than ``trace`` so that it never
shadows the standard library's ``trace`` module on ``sys.path``.)
"""

from __future__ import annotations

import functools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter


class _Node:
    """One path of the span tree."""

    __slots__ = ("count", "total", "self", "children")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self = 0.0
        self.children: dict[str, _Node] = {}


class _Frame:
    """An open span: its node and the time its children took so far."""

    __slots__ = ("node", "child_time")

    def __init__(self, node: _Node) -> None:
        self.node = node
        self.child_time = 0.0


class _ThreadState:
    __slots__ = ("stack", "counters")

    def __init__(self, root: _Node) -> None:
        self.stack = [_Frame(root)]
        #: named counts recorded by wrapper hooks on this thread
        self.counters: dict[str, float] = {}


class Tracer:
    """Thread-local span stacks feeding one in-memory span tree per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(_Node())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, name: str) -> tuple[_ThreadState, _Frame, _Frame]:
        state = self._state()
        parent = state.stack[-1]
        node = parent.node.children.get(name)
        if node is None:
            node = parent.node.children[name] = _Node()
        frame = _Frame(node)
        state.stack.append(frame)
        return state, parent, frame

    @staticmethod
    def _exit(state, parent, frame, elapsed: float) -> None:
        state.stack.pop()
        node = frame.node
        node.count += 1
        node.total += elapsed
        node.self += elapsed - frame.child_time
        parent.child_time += elapsed

    @contextmanager
    def span(self, name: str):
        """Time the body as a span called *name*."""
        state, parent, frame = self._enter(name)
        started = perf_counter()
        try:
            yield
        finally:
            self._exit(state, parent, frame, perf_counter() - started)

    def wrap(self, name: str, function, hook=None):
        """*function* timed as span *name*.

        *hook*, when given, is called with the call's arguments before
        the call and returns a finisher; the finisher is called with the
        result and this thread's counter dict after the span closes.
        """

        def traced(*args, **kwargs):
            state, parent, frame = self._enter(name)
            finish = hook(args) if hook is not None else None
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit(state, parent, frame, perf_counter() - started)
            if finish is not None:
                finish(result, state.counters)
            return result

        return functools.wraps(function)(traced)

    def tree(self) -> dict[tuple[str, ...], list[float]]:
        """Every thread's spans merged by path: path -> [count, total, self]."""
        merged: dict[tuple[str, ...], list[float]] = {}

        def walk(node: _Node, path: tuple[str, ...]) -> None:
            for name, child in node.children.items():
                key = path + (name,)
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += child.count
                entry[1] += child.total
                entry[2] += child.self
                walk(child, key)

        with self._lock:
            states = list(self._states)
        for state in states:
            walk(state.stack[0].node, ())
        return merged

    def counters(self) -> dict[str, float]:
        """Every thread's hook counters, summed."""
        total: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counters.items():
                total[name] = total.get(name, 0) + value
        return total


# ----------------------------------------------------------------------
# The wrapped entry points
# ----------------------------------------------------------------------


def _count_useful(args):
    """``consider`` hook: count considerations that held and wrote."""

    def finish(outcome, counters):
        if outcome.condition_was_true and outcome.operations_performed > 0:
            counters["processor.useful"] = counters.get("processor.useful", 0) + 1

    return finish


def _processor_stats(args):
    """``run`` hook: add the processor's stats movement to the counters."""
    stats = args[0].stats
    before = stats.snapshot()

    def finish(result, counters):
        for name, value in stats.delta_since(before).items():
            key = f"processor.stats.{name}"
            counters[key] = counters.get(key, 0) + value
        counters["processor.steps"] = (
            counters.get("processor.steps", 0) + len(result.steps)
        )

    return finish


def _targets():
    """(span name, owner, attribute, hook) for every wrapped entry point."""
    from repro.analysis import analyzer
    from repro.analysis.analyzer import RuleAnalyzer
    from repro.engine import dml, query, wal
    from repro.engine.database import Database
    from repro.engine.wal import WalWriter
    from repro.lang import parser
    from repro.rules.ruleset import RuleSet
    from repro.runtime import exec_graph
    from repro.runtime.processor import RuleProcessor
    from repro.runtime.server import Session
    from repro.transitions.net_effect import NetEffect, TableNetEffect

    return (
        ("lang.parse_rules", RuleSet, "parse", None),
        ("lang.parse_statement", parser, "parse_statement", None),
        ("analysis.analyze", RuleAnalyzer, "analyze", None),
        ("analysis.termination", RuleAnalyzer, "analyze_termination", None),
        ("analysis.termination", analyzer, "build_termination_report", None),
        ("analysis.confluence", RuleAnalyzer, "analyze_confluence", None),
        ("analysis.observable", RuleAnalyzer, "analyze_observable_determinism", None),
        ("analysis.partial", RuleAnalyzer, "analyze_partial_confluence", None),
        ("processor.ingest", RuleProcessor, "execute_user", None),
        ("processor.trigger", RuleProcessor, "eligible_rules", None),
        ("processor.consider", RuleProcessor, "consider", _count_useful),
        ("processor.commit", RuleProcessor, "commit", None),
        ("processor.fork", RuleProcessor, "fork", None),
        ("processor.state_key", RuleProcessor, "state_key", None),
        ("processor.run", RuleProcessor, "run", _processor_stats),
        ("dml.execute", dml, "execute_statement", None),
        ("query.select", query, "execute_select", None),
        ("net_effect.fold", NetEffect, "fold", None),
        ("net_effect.canonical", TableNetEffect, "canonical", None),
        ("database.canonical", Database, "canonical", None),
        ("database.copy", Database, "copy", None),
        ("database.snapshot", Database, "snapshot", None),
        ("database.load", Database, "load", None),
        ("wal.append", WalWriter, "primitive", None),
        ("wal.commit", WalWriter, "commit", None),
        ("wal.checkpoint", WalWriter, "checkpoint", None),
        ("wal.recover", wal, "recover_database", None),
        ("server.session_run", Session, "run", None),
        ("server.session_commit", Session, "commit", None),
        ("explore", exec_graph, "explore", None),
    )


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :func:`_targets` for *tracer*.

    Methods are replaced on their class. A module-level function is
    replaced in every loaded ``repro`` module that bound it by name
    (``from ... import execute_statement``), so callers that looked it
    up at import time see the wrapper too; install after importing the
    modules whose calls should be traced.
    """
    for name, owner, attribute, hook in _targets():
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(
                    owner,
                    attribute,
                    classmethod(tracer.wrap(name, raw.__func__, hook)),
                )
            else:
                setattr(owner, attribute, tracer.wrap(name, raw, hook))
            continue
        original = getattr(owner, attribute)
        wrapper = tracer.wrap(name, original, hook)
        for module_name, module in list(sys.modules.items()):
            if (
                module is not None
                and (module_name == "repro" or module_name.startswith("repro."))
                and getattr(module, attribute, None) is original
            ):
                setattr(module, attribute, wrapper)
