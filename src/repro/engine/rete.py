"""Rete/TREAT-style incremental matching for rule conditions.

The planned executor (:mod:`repro.engine.plan`) re-evaluates a rule's
condition from scratch at every consideration: pushed-down filters
re-scan their tables, hash joins rebuild or re-probe their indexes, and
the verdict is recomputed even when nothing relevant changed. This
module compiles the *same* classification the planner produces
(:func:`repro.engine.plan.classify_select`) into a discrimination
network advanced by the delta log instead:

* **alpha nodes** — one per (table, binding, pushed-down conjuncts)
  triple; the alpha memory holds exactly the rows that pass the leaf's
  single-table filters (the planner's ``filters`` plus its constant
  probes, applied as plain predicates);
* **beta nodes** — one per equi-join level of a leaf's left-deep chain,
  reusing the planner's :class:`~repro.engine.plan.JoinConjunct` probe
  columns and build expressions; the beta memory holds join tokens
  (tuples of tids) with hash indexes on both sides, plus the residual
  conjuncts the planner would apply at that binding depth;
* **terminal memories** — the deepest node of each ``EXISTS`` leaf; a
  rule's verdict is a boolean combination of terminal non-emptiness.

Because the network is compiled from the identical classification, the
match set of every leaf equals the planned executor's result set by
construction; the randomized equivalence harness and the ``bench_rete``
gate assert byte-identical processing outcomes across the two paths.

Scope and fallback. A rule is *network-supported* when its condition is
a boolean combination (``and``/``or``/``not``) of ``EXISTS`` leaves
whose subqueries are ``SELECT *`` over base tables with statically
classifiable conjuncts (no transition tables, no nested subqueries, no
grouping). Anything else — and any error raised while folding deltas —
falls back to the planned executor at consideration time, which also
reproduces error behavior exactly (a network never answers for a
condition the planned path would refuse or fail differently). Constant
gates and constant-probe values are row-independent, so they are
evaluated once at compile time; a gate or probe that raises marks the
leaf unsupported so the planned path can raise identically at runtime.

Sharing. Node memories are keyed by structural node identity (table,
binding, conjunct ASTs, whose literals compare by type), so rules with
identical alpha/beta prefixes share memories automatically. Instances
fork under :meth:`~repro.engine.database.Database.copy` with the same
share/own discipline as
:class:`~repro.transitions.net_effect.TableNetEffect`: a fork aliases
every memory in O(nodes) and the first mutation on either side copies
just that memory — ``explore()`` children inherit their parent's match
sets for free.

Known cost asymmetry (the TREAT trade-off): retracting a token scans
the affected beta memory's output set, so delete-heavy workloads over
large join results pay O(|matches|) per retraction where insert-heavy
ones pay O(bucket).
"""

from __future__ import annotations

import time

from repro.engine import plan as P
from repro.engine import values as V
from repro.engine.expressions import Evaluator, RowContext
from repro.lang import ast
from repro.stats import StatsBase


class ReteStats(StatsBase):
    """Global work counters for the incremental match network.

    ``rows_touched`` is the network's total row/token work (build scans,
    alpha tests, join emissions, retraction scans) — the ``bench_rete``
    gate compares it against the planned executor's ``rows_scanned``
    over the same workload.
    """

    FIELDS = (
        "networks_compiled",
        "rules_supported",
        "rules_unsupported",
        "nodes_alpha",
        "nodes_beta",
        "nodes_shared",
        "builds",
        "invalidations",
        "deltas_folded",
        "alpha_tests",
        "join_probes",
        "tokens_built",
        "tokens_retracted",
        "rows_touched",
        "terminal_hits",
        "fallbacks",
        "poisonings",
        "advance_seconds",
    )
    SECONDS = frozenset({"advance_seconds"})

    def reset(self) -> None:
        super().reset()
        #: fallback reason -> count; the breakdown of ``fallbacks``
        #: (which workload shapes the network cannot match yet — the
        #: prioritization signal for widening the supported fragment)
        self.fallback_reasons: dict[str, int] = {}

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["fallback_reasons"] = dict(sorted(self.fallback_reasons.items()))
        return data


STATS = ReteStats()


def _count_fallback(reason: str) -> None:
    STATS.fallbacks += 1
    STATS.fallback_reasons[reason] = STATS.fallback_reasons.get(reason, 0) + 1

#: shared provider-less evaluator for compiled conjuncts — network
#: predicates never contain subqueries, so no provider is ever consulted.
#: Sharing one evaluator across statements and threads departs from the
#: one-statement evaluator lifetime, and is safe only because without a
#: provider it can never run a subquery, so its subquery memo stays
#: empty (the provider-less evaluators of ``lint.folding`` and
#: ``analysis.commutativity`` rest on the same fact)
_EVALUATOR = Evaluator(None)


class _Unsupported(Exception):
    """Internal marker: this condition cannot be network-matched.

    Carries the *reason* slug recorded per rule on
    :attr:`ReteNetwork.unsupported` and tallied into
    ``ReteStats.fallback_reasons`` at every runtime fallback.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _aggregate_in(select: ast.Select) -> bool:
    """True when *select* itself groups or computes an aggregate (a
    HAVING clause requires GROUP BY)."""
    return bool(select.group_by) or any(
        ast.contains_aggregate(item.expr) for item in select.items
    )


def _shape_reason(expr: ast.Expression) -> str:
    """Why a non-boolean-tree condition node is unsupported.

    Distinguishes the aggregate-threshold idiom (``(select count(*)
    from t) > n``) and plain subquery comparisons from genuinely
    unknown shapes, so the fallback histogram points at the right
    ROADMAP item.
    """
    if any(_aggregate_in(select) for select in ast.subqueries_of(expr)):
        return "aggregate"
    if any(
        isinstance(node, (ast.InSubquery, ast.ScalarSubquery))
        for node in ast.walk_expression(expr)
    ):
        return "subquery"
    return "non-boolean-shape"


class AlphaNode:
    """A single-table filter node: rows of *table* passing *conjuncts*."""

    __slots__ = ("key", "table", "binding", "columns", "predicates", "successors")

    def __init__(self, key, table, binding, columns, predicates) -> None:
        self.key = key
        self.table = table
        self.binding = binding
        self.columns = columns
        self.predicates = predicates
        #: (BetaNode, "left" | "right") pairs fed by this node
        self.successors: list = []


class BetaNode:
    """One equi-join level of a leaf's left-deep chain.

    ``level`` is the chain index of the right input (left tokens have
    ``level`` components; output tokens ``level + 1``).
    ``level_alphas`` holds the chain's alpha nodes for levels
    ``0..level`` — the join context binds them in order, exactly like
    the planned executor's nested enumeration.
    """

    __slots__ = (
        "key",
        "level",
        "level_alphas",
        "join_cols",
        "join_builds",
        "residuals",
        "successors",
    )

    def __init__(
        self, key, level, level_alphas, join_cols, join_builds, residuals
    ) -> None:
        self.key = key
        self.level = level
        self.level_alphas = level_alphas
        self.join_cols = join_cols
        self.join_builds = join_builds
        self.residuals = residuals
        #: deeper BetaNodes consuming this node's tokens as left input
        self.successors: list = []


class _AlphaMemory:
    """Per-instance state of an alpha node: tid -> passing values."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, tuple] = {}

    def copy(self) -> "_AlphaMemory":
        clone = _AlphaMemory()
        clone.rows = dict(self.rows)
        return clone


class _BetaMemory:
    """Per-instance state of a beta node.

    ``out`` is the materialized token set (insertion-ordered);
    ``left_keys``/``left_index`` index left tokens by join key (a NULL
    key is recorded but never indexed — NULL joins nothing);
    ``right_index`` buckets right-side tids by join key.
    """

    __slots__ = ("out", "left_keys", "left_index", "right_index")

    def __init__(self) -> None:
        self.out: dict[tuple, None] = {}
        self.left_keys: dict[tuple, tuple | None] = {}
        self.left_index: dict[tuple, dict[tuple, None]] = {}
        self.right_index: dict[tuple, dict[int, None]] = {}

    def copy(self) -> "_BetaMemory":
        clone = _BetaMemory()
        clone.out = dict(self.out)
        clone.left_keys = dict(self.left_keys)
        clone.left_index = {
            key: dict(bucket) for key, bucket in self.left_index.items()
        }
        clone.right_index = {
            key: dict(bucket) for key, bucket in self.right_index.items()
        }
        return clone


class ReteNetwork:
    """The immutable network topology compiled from one rule set.

    Shared by every :class:`ReteInstance` (and therefore every
    ``fork()`` of a processor); only instances hold memories.
    """

    def __init__(self, ruleset) -> None:
        self._schema = ruleset.schema
        self.alphas: dict = {}
        self.betas: dict = {}
        #: creation order is a valid build order: a beta's left input is
        #: always an earlier-created node
        self.topo_betas: list[BetaNode] = []
        self.alphas_by_table: dict[str, list[AlphaNode]] = {}
        #: rule name -> verdict tree, for network-supported rules only
        self.rules: dict[str, tuple] = {}
        #: rule name -> reason slug, for network-refused rules
        self.unsupported: dict[str, str] = {}

        STATS.networks_compiled += 1
        for rule in ruleset:
            if rule.condition is None:
                continue
            try:
                self.rules[rule.name] = self._compile_condition(rule.condition)
                STATS.rules_supported += 1
            except _Unsupported as unsupported:
                self.unsupported[rule.name] = unsupported.reason
                STATS.rules_unsupported += 1
        self.tables = frozenset(
            alpha.table for alpha in self.alphas.values()
        )

    # ------------------------------------------------------------------
    # Condition compilation
    # ------------------------------------------------------------------

    def _compile_condition(self, expr: ast.Expression) -> tuple:
        """Lower a condition into a verdict tree over terminal memories.

        ``EXISTS`` always yields a plain bool (never NULL), so a tree of
        ``and``/``or``/``not`` over EXISTS leaves is classical boolean
        logic — short-circuiting it matches the planned executor's
        Kleene evaluation exactly.
        """
        if isinstance(expr, ast.BinaryOp) and expr.op in ("and", "or"):
            return (
                expr.op,
                self._compile_condition(expr.left),
                self._compile_condition(expr.right),
            )
        if isinstance(expr, ast.UnaryOp) and expr.op == "not":
            return ("not", self._compile_condition(expr.operand))
        if isinstance(expr, ast.Exists):
            leaf = self._compile_leaf(expr.subquery)
            return ("not", leaf) if expr.negated else leaf
        raise _Unsupported(_shape_reason(expr))

    def _compile_leaf(self, select: ast.Select) -> tuple:
        """Compile one EXISTS subquery into a node chain.

        Returns ``("const", bool)`` when a compile-time constant gate
        decides the leaf, else ``("node", terminal)``.
        """
        if _aggregate_in(select):
            raise _Unsupported("aggregate")
        if not select.is_star or not select.tables:
            raise _Unsupported("non-star")

        schema = self._schema
        sources = []
        seen: set[str] = set()
        for ref in select.tables:
            name = ref.name.lower()
            binding = ref.binding_name.lower()
            if name in ast.TRANSITION_TABLE_NAMES:
                raise _Unsupported("transition-table")
            if not schema.has_table(name):
                raise _Unsupported("unknown-table")
            if binding in seen:
                # Duplicate bindings are a QueryError at execution time;
                # the planned fallback reproduces it.
                raise _Unsupported("duplicate-binding")
            seen.add(binding)
            sources.append((name, binding, schema.table(name).column_names))

        source_columns = tuple(
            (binding, columns) for __, binding, columns in sources
        )
        classified = P.classify_select(select, source_columns)
        if classified.has_ambiguous:
            raise _Unsupported("ambiguous-residual")

        # Row-independent expressions are evaluated by the planned
        # executor on every query — even over empty tables — so any that
        # raises must stay on the planned path to raise identically.
        probe = RowContext()
        for gate in classified.constant_gates:
            try:
                value = P.compile_predicate(gate)(None, probe, _EVALUATOR)
            except Exception:
                raise _Unsupported("constant-error") from None
            if not V.sql_is_truthy(value):
                return ("const", False)
        for source in classified.sources:
            for const_probe in source.const_probes:
                try:
                    P.compile_predicate(const_probe.value)(
                        None, probe, _EVALUATOR
                    )
                except Exception:
                    raise _Unsupported("constant-error") from None

        chain: list[AlphaNode] = []
        node = None
        for i, source in enumerate(classified.sources):
            table, binding, columns = sources[i]
            conjuncts = tuple(source.filters) + tuple(
                cp.conjunct for cp in source.const_probes
            )
            alpha = self._alpha(table, binding, columns, conjuncts)
            chain.append(alpha)
            if i == 0:
                node = alpha
            else:
                node = self._beta(node, tuple(chain), i, source)
        return ("node", node)

    def _alpha(self, table, binding, columns, conjuncts) -> AlphaNode:
        key = ("alpha", table, binding, conjuncts)
        alpha = self.alphas.get(key)
        if alpha is not None:
            STATS.nodes_shared += 1
            return alpha
        alpha = AlphaNode(
            key,
            table,
            binding,
            columns,
            tuple(P.compile_predicate(c) for c in conjuncts),
        )
        self.alphas[key] = alpha
        self.alphas_by_table.setdefault(table, []).append(alpha)
        STATS.nodes_alpha += 1
        return alpha

    def _beta(self, left, level_alphas, level, source) -> BetaNode:
        joins = tuple(j.conjunct for j in source.joins)
        residuals = tuple(r.conjunct for r in source.residuals)
        key = ("beta", left.key, level_alphas[-1].key, joins, residuals)
        beta = self.betas.get(key)
        if beta is not None:
            STATS.nodes_shared += 1
            return beta
        beta = BetaNode(
            key,
            level,
            level_alphas,
            tuple(j.probe_column for j in source.joins),
            tuple(P.compile_predicate(j.build) for j in source.joins),
            tuple(P.compile_predicate(c) for c in residuals),
        )
        self.betas[key] = beta
        self.topo_betas.append(beta)
        level_alphas[-1].successors.append((beta, "right"))
        if isinstance(left, AlphaNode):
            left.successors.append((beta, "left"))
        else:
            left.successors.append(beta)
        STATS.nodes_beta += 1
        return beta


class ReteInstance:
    """One processor's memories over a shared :class:`ReteNetwork`.

    Built lazily from the current database state on first use, then
    advanced by folding only-new delta-log primitives. Any exception
    during build or fold *poisons* the instance: every subsequent
    verdict is ``None`` and the processor falls back to the planned
    executor, which reproduces results (and errors) exactly.
    """

    __slots__ = (
        "network",
        "_database",
        "_log",
        "_memories",
        "_owned",
        "_built",
        "_position",
        "_poisoned",
    )

    def __init__(self, network: ReteNetwork, database, log) -> None:
        self.network = network
        self._database = database
        self._log = log
        self._memories: dict = {}
        self._owned: set = set()
        self._built = False
        self._position = 0
        self._poisoned = False

    def fork(self, database, log) -> "ReteInstance":
        """An O(nodes) fork sharing every memory copy-on-write.

        Both sides lose ownership: the first mutation on either side
        copies just the touched memory (the ``NetEffect.share``
        discipline).
        """
        clone = ReteInstance.__new__(ReteInstance)
        clone.network = self.network
        clone._database = database
        clone._log = log
        clone._memories = dict(self._memories)
        clone._owned = set()
        self._owned = set()
        clone._built = self._built
        clone._position = self._position
        clone._poisoned = self._poisoned
        return clone

    def consumed(self, position: int) -> bool:
        """True when the network will read no log primitive before
        *position*: its cursor is there, or it is unbuilt (a build reads
        the database and starts at the log's end) or poisoned."""
        return self._poisoned or not self._built or self._position >= position

    def invalidate(self) -> None:
        """Drop all memories (rollback restored the database under us);
        the next verdict rebuilds from the restored state."""
        self._memories = {}
        self._owned = set()
        self._built = False
        STATS.invalidations += 1

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def verdict(self, rule_name: str) -> bool | None:
        """The rule's condition verdict, or None to fall back."""
        tree = self.network.rules.get(rule_name)
        if tree is None or self._poisoned:
            if self._poisoned:
                _count_fallback("poisoned")
            else:
                _count_fallback(
                    self.network.unsupported.get(rule_name, "no-condition")
                )
            return None
        self._advance()
        if self._poisoned:
            _count_fallback("poisoned")
            return None
        STATS.terminal_hits += 1
        return self._eval(tree)

    def _eval(self, tree: tuple) -> bool:
        kind = tree[0]
        if kind == "node":
            node = tree[1]
            memory = self._memories[node.key]
            if isinstance(node, AlphaNode):
                return bool(memory.rows)
            return bool(memory.out)
        if kind == "const":
            return tree[1]
        if kind == "not":
            return not self._eval(tree[1])
        if kind == "and":
            return self._eval(tree[1]) and self._eval(tree[2])
        return self._eval(tree[1]) or self._eval(tree[2])

    # ------------------------------------------------------------------
    # Delta folding
    # ------------------------------------------------------------------

    def _advance(self) -> None:
        started = time.perf_counter()
        try:
            if not self._built:
                self._build()
            end = self._log.position
            if self._position < end:
                network = self.network
                position = self._position
                if any(
                    self._log.written_since(table, position)
                    for table in network.tables
                ):
                    for primitive in self._log.iter_range(position, end):
                        alphas = network.alphas_by_table.get(primitive.table)
                        if not alphas:
                            continue
                        STATS.deltas_folded += 1
                        for alpha in alphas:
                            self._fold(alpha, primitive)
                self._position = end
        except Exception:
            self._poisoned = True
            STATS.poisonings += 1
        finally:
            STATS.advance_seconds += time.perf_counter() - started

    def _fold(self, alpha: AlphaNode, primitive) -> None:
        kind = primitive.kind
        if kind == "I":
            self._alpha_insert(alpha, primitive.tid, primitive.new)
        elif kind == "D":
            self._alpha_retract(alpha, primitive.tid)
        else:  # U: retract the old row, insert the new one
            self._alpha_retract(alpha, primitive.tid)
            self._alpha_insert(alpha, primitive.tid, primitive.new)

    def _build(self) -> None:
        """Materialize every memory from the current database state."""
        self._memories = {}
        self._owned = set()
        network = self.network
        for alpha in network.alphas.values():
            memory = _AlphaMemory()
            self._memories[alpha.key] = memory
            self._owned.add(alpha.key)
            for tid, values in self._database.table(alpha.table).items():
                STATS.rows_touched += 1
                STATS.alpha_tests += 1
                if self._passes(alpha, values):
                    memory.rows[tid] = values
        for beta in network.topo_betas:
            memory = _BetaMemory()
            self._memories[beta.key] = memory
            self._owned.add(beta.key)
            cols = beta.join_cols
            for rtid, values in self._memories[
                beta.level_alphas[-1].key
            ].rows.items():
                key = P._probe_key([values[col] for col in cols])
                if key is not None:
                    memory.right_index.setdefault(key, {})[rtid] = None
            # The left input's memory is already built: alphas first,
            # then betas in creation (= topological) order.
            left_memory = self._memories[beta.key[1]]
            if beta.level == 1:
                tokens = [(tid,) for tid in left_memory.rows]
            else:
                tokens = list(left_memory.out)
            for token in tokens:
                self._left_insert(beta, token, propagate=False)
        self._position = self._log.position
        self._built = True
        STATS.builds += 1

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------

    def _memory(self, key):
        """The owned (mutable) memory for *key*, copying on first write."""
        memory = self._memories[key]
        if key not in self._owned:
            memory = memory.copy()
            self._memories[key] = memory
            self._owned.add(key)
        return memory

    def _passes(self, alpha: AlphaNode, values: tuple) -> bool:
        if not alpha.predicates:
            return True
        context = RowContext()
        context.bind(alpha.binding, alpha.columns, values)
        truthy = V.sql_is_truthy
        for predicate in alpha.predicates:
            if not truthy(predicate(None, context, _EVALUATOR)):
                return False
        return True

    def _alpha_insert(self, alpha: AlphaNode, tid: int, values: tuple) -> None:
        STATS.alpha_tests += 1
        STATS.rows_touched += 1
        if not self._passes(alpha, values):
            return
        self._memory(alpha.key).rows[tid] = values
        for successor, role in alpha.successors:
            if role == "right":
                self._right_insert(successor, tid, values)
            else:
                self._left_insert(successor, (tid,), propagate=True)

    def _alpha_retract(self, alpha: AlphaNode, tid: int) -> None:
        if tid not in self._memories[alpha.key].rows:
            return
        values = self._memory(alpha.key).rows.pop(tid)
        for successor, role in alpha.successors:
            if role == "right":
                self._right_retract(successor, tid, values)
            else:
                self._left_retract(successor, (tid,))

    def _left_context(self, beta: BetaNode, token: tuple) -> RowContext:
        """A context binding the token's rows for levels 0..level-1."""
        context = RowContext()
        for j in range(beta.level):
            alpha = beta.level_alphas[j]
            context.bind(
                alpha.binding,
                alpha.columns,
                self._memories[alpha.key].rows[token[j]],
            )
        return context

    def _left_insert(self, beta: BetaNode, token: tuple, propagate: bool) -> None:
        memory = self._memory(beta.key)
        context = self._left_context(beta, token)
        key = P._probe_key(
            [build(None, context, _EVALUATOR) for build in beta.join_builds]
        )
        memory.left_keys[token] = key
        if key is None:
            return
        memory.left_index.setdefault(key, {})[token] = None
        matches = memory.right_index.get(key)
        if not matches:
            return
        STATS.join_probes += 1
        right_rows = self._memories[beta.level_alphas[-1].key].rows
        for rtid in list(matches):
            self._emit(beta, memory, context, token, rtid, right_rows[rtid], propagate)

    def _right_insert(self, beta: BetaNode, rtid: int, values: tuple) -> None:
        key = P._probe_key([values[col] for col in beta.join_cols])
        if key is None:
            return
        memory = self._memory(beta.key)
        memory.right_index.setdefault(key, {})[rtid] = None
        lefts = memory.left_index.get(key)
        if not lefts:
            return
        STATS.join_probes += 1
        for token in list(lefts):
            context = self._left_context(beta, token)
            self._emit(beta, memory, context, token, rtid, values, True)

    def _emit(
        self, beta, memory, context, token, rtid, values, propagate
    ) -> None:
        """Try to form ``token + (rtid,)``: residuals, then output."""
        STATS.rows_touched += 1
        right = beta.level_alphas[-1]
        context.bind(right.binding, right.columns, values)
        truthy = V.sql_is_truthy
        for predicate in beta.residuals:
            if not truthy(predicate(None, context, _EVALUATOR)):
                return
        out_token = token + (rtid,)
        memory.out[out_token] = None
        STATS.tokens_built += 1
        if propagate:
            for successor in beta.successors:
                self._left_insert(successor, out_token, True)

    def _left_retract(self, beta: BetaNode, token: tuple) -> None:
        readonly = self._memories[beta.key]
        if token not in readonly.left_keys:
            return
        memory = self._memory(beta.key)
        key = memory.left_keys.pop(token)
        if key is not None:
            bucket = memory.left_index.get(key)
            if bucket is not None:
                bucket.pop(token, None)
                if not bucket:
                    del memory.left_index[key]
        level = beta.level
        STATS.rows_touched += len(memory.out)
        doomed = [t for t in memory.out if t[:level] == token]
        for out_token in doomed:
            del memory.out[out_token]
            STATS.tokens_retracted += 1
            for successor in beta.successors:
                self._left_retract(successor, out_token)

    def _right_retract(self, beta: BetaNode, rtid: int, values: tuple) -> None:
        key = P._probe_key([values[col] for col in beta.join_cols])
        if key is None:
            return
        memory = self._memory(beta.key)
        bucket = memory.right_index.get(key)
        if bucket is not None:
            bucket.pop(rtid, None)
            if not bucket:
                del memory.right_index[key]
        STATS.rows_touched += len(memory.out)
        doomed = [t for t in memory.out if t[-1] == rtid]
        for out_token in doomed:
            del memory.out[out_token]
            STATS.tokens_retracted += 1
            for successor in beta.successors:
                self._left_retract(successor, out_token)
