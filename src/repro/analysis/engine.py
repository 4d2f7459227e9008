"""The shared pairwise-analysis engine behind the session façade.

Every Section 6–8 analysis in this repo ultimately spends its time in
the same two places: the raw Lemma 6.1 pair judgments (syntactic
noncommutativity reasons) and the per-unordered-pair Definition 6.5
verdicts (interference fixpoint + cross-member commutativity checks).
The paper frames these analyses as the core of an *interactive*
development environment — analyze, certify or order, re-analyze — and
``repair_confluence`` literalises that loop, so re-judging all O(n²)
pairs from scratch on every round is the dominant cost.

:class:`AnalysisEngine` is one shared, memoized judge for all of them:

* **Raw Lemma 6.1 memo** — per pair, keyed by rule content; these
  verdicts depend only on the two rules' definitions (``Triggers`` /
  ``Can-Untrigger`` edges are membership tests on rule-local event
  sets), so they survive certifications, priority edits, and universe
  restrictions, and are shared with restricted sub-engines.
* **One judgment per pair across views.** The ``Obs``-extended
  definitions widen ``Reads``/``Performs`` of the observable rules only;
  ``Triggered-By``, ``Triggers`` and ``Can-Untrigger`` are the base
  ones. So a pair with no observable member gets the same Lemma 6.1
  reasons in both views: its raw judgment lives in the base store, and
  the Obs store holds only pairs with an observable member. Likewise an
  Obs pair verdict whose ``R1 ∪ R2`` holds no observable rule equals the
  base verdict for the same (pair, universe) key — the fixpoint reads
  only ``Triggers`` and ``P``, and every cross-member check is then a
  pair judged alike under the same certifications — so it is read from
  and stored in the base pair memo.
* **Pair-verdict memo** — per (unordered pair, universe), the full
  :class:`~repro.analysis.confluence.PairJudgment` with its dependency
  footprint. Invalidated *precisely*:

  - **certify / revoke (a, b)** — drops only verdicts whose
    ``R1 ∪ R2`` contains both ``a`` and ``b`` (commutativity is only
    consulted across those members);
  - **priority add / remove** — the closure delta is computed and a
    verdict is dropped only when some changed edge ``(x, y)`` has
    ``x`` among the rules whose precedence the fixpoint queried and
    ``y`` among its members;
  - **rule edit** (:meth:`update_ruleset`) — per-rule content
    fingerprints are diffed; verdicts touching a changed rule (or a
    rule whose ``Triggers`` set changed) are dropped, as are the raw
    memos of pairs involving it. Adding or removing rules clears the
    pair memo wholesale (any rule may join a fixpoint).

* **Lazy judging** — a raw Lemma 6.1 pair is judged the first time an
  analysis asks for it, on the calling thread, and served from the
  memo after that; no pass judges pairs ahead of need.

The engine also keeps :class:`EngineStats` — pairs judged, memo hits,
invalidations, fixpoint iterations, per-phase wall-clock — surfaced
through ``AnalysisReport.stats`` and ``starburst-analyze --stats``.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.analysis.commutativity import CommutativityAnalyzer
from repro.analysis.confluence import (
    ConfluenceAnalysis,
    PairJudgment,
    judge_unordered_pair,
)
from repro.analysis.derived import (
    DerivedDefinitions,
    ObsExtendedDefinitions,
)
from repro.analysis.termination import TerminationAnalysis, TerminationAnalyzer
from repro.errors import AnalysisError
from repro.rules.ruleset import RuleSet
from repro.stats import StatsBase

#: The two definition views an engine serves: the paper's base
#: definitions (Sections 3–7) and the ``Obs``-extended definitions
#: (Section 8).
BASE_VIEW = "base"
OBS_VIEW = "obs"

#: The precision tiers of :meth:`AnalysisEngine.pair_pruning_counts`,
#: coarse to fine: (label, granularity, column_dataflow).
PRECISION_TIERS = (
    ("table", "table", False),
    ("column", "column", False),
    ("dataflow", "column", True),
)


class EngineStats(StatsBase):
    """Counters and per-phase timings for one engine (cumulative).

    ``pairs_judged`` counts Definition 6.5 unordered-pair verdicts
    actually computed (fixpoint + Lemma 6.1 checks over R1 × R2);
    ``pair_memo_hits`` counts verdicts served from the memo instead.
    ``lemma_judgments`` / ``lemma_memo_hits`` are the same split for the
    raw Lemma 6.1 pair reasons underneath. ``timings`` maps an analysis
    phase to its cumulative seconds.
    """

    FIELDS = (
        "pairs_judged",
        "pair_memo_hits",
        "lemma_judgments",
        "lemma_memo_hits",
        "invalidations",
        "fixpoint_iterations",
        "confluence_passes",
    )

    def reset(self) -> None:
        super().reset()
        self.timings: dict[str, float] = {}

    def add_time(self, phase: str, seconds: float) -> None:
        self.timings[phase] = self.timings.get(phase, 0.0) + seconds

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["timings"] = {
            phase: round(seconds, 6)
            for phase, seconds in sorted(self.timings.items())
        }
        return data


class _View:
    """One definition view (base or Obs-extended) with its memo tables."""

    def __init__(
        self,
        key: str,
        definitions: DerivedDefinitions,
        commutativity: CommutativityAnalyzer,
    ) -> None:
        self.key = key
        self.definitions = definitions
        self.commutativity = commutativity
        #: (frozenset(pair), universe frozenset) -> PairJudgment
        self.pair_memo: dict[
            tuple[frozenset[str], frozenset[str]], PairJudgment
        ] = {}


def _rule_fingerprint(rule) -> tuple:
    """Content fingerprint of one rule: everything a pair judgment can
    read from it (source covers condition/actions/clauses; the derived
    event sets and observability are listed explicitly so a change in
    their computation also fingerprints)."""
    return (
        rule.name,
        rule.source(),
        tuple(sorted(str(event) for event in rule.triggered_by)),
        rule.is_observable,
    )


class AnalysisEngine:
    """Shared memoized pair-judging service for one analysis session.

    One engine instance backs all of a session's analyses — full
    confluence, partial confluence, observable determinism, the repair
    loop, and restricted sub-analyses (via :meth:`restrict`, which
    shares the raw Lemma 6.1 memo and stats). A raw judgment or pair
    verdict computed for one view is served to the other view wherever
    the two provably agree (see the module docstring).
    """

    def __init__(
        self,
        ruleset: RuleSet,
        *,
        refine: bool = False,
        granularity: str = "column",
        column_dataflow: bool = False,
        memoize: bool = True,
        stats: EngineStats | None = None,
        reason_stores: dict[str, dict] | None = None,
    ) -> None:
        self.ruleset = ruleset
        self.refine = refine
        self.granularity = granularity
        self.column_dataflow = column_dataflow
        self.memoize = memoize
        self.stats = stats if stats is not None else EngineStats()
        #: raw Lemma 6.1 memo dicts per view (the Obs one holds only
        #: pairs with an observable member); shared with restricted
        #: sub-engines (judgments are universe-independent)
        self._reason_stores: dict[str, dict] = (
            reason_stores
            if reason_stores is not None
            else {BASE_VIEW: {}, OBS_VIEW: {}}
        )
        self._certified_commutes: set[frozenset[str]] = set()
        self._fingerprints = {
            rule.name: _rule_fingerprint(rule) for rule in ruleset
        }
        self._priority_snapshot = ruleset.priorities.pairs()
        self._views: dict[str, _View] = {}
        self._termination_analyzer: TerminationAnalyzer | None = None
        #: memoized pair_pruning_counts() result; depends only on rule
        #: content, so it is dropped on rule edits and nothing else
        self._pruning_counts: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Views and component access
    # ------------------------------------------------------------------

    def _build_view(self, key: str) -> _View:
        if key == BASE_VIEW:
            definitions: DerivedDefinitions = DerivedDefinitions(self.ruleset)
        else:
            definitions = ObsExtendedDefinitions(
                self.ruleset, base=self._view(BASE_VIEW).definitions
            )
        commutativity = CommutativityAnalyzer(
            definitions,
            granularity=self.granularity,
            refine=self.refine,
            column_dataflow=self.column_dataflow,
            cache=self._reason_stores[key],
            base_cache=(
                None if key == BASE_VIEW else self._reason_stores[BASE_VIEW]
            ),
            stats=self.stats,
            on_certification=lambda pair, added, _key=key: (
                self._certification_changed(_key, pair, added)
            ),
        )
        view = _View(key, definitions, commutativity)
        # Replay session certifications into a freshly (re)built view.
        for pair in sorted(self._certified_commutes, key=sorted):
            if self._applies_to_view(view, pair):
                first, second = sorted(pair)
                commutativity.certify_commutes(first, second)
        return view

    def _view(self, key: str) -> _View:
        view = self._views.get(key)
        if view is None:
            view = self._build_view(key)
            self._views[key] = view
        return view

    def _applies_to_view(self, view: _View, pair: frozenset[str]) -> bool:
        """A certification about the real tables never silences the
        Obs-induced noncommutativity between two observable rules
        (Corollary 8.2), so it is not replayed into the Obs view."""
        if view.key == BASE_VIEW:
            return True
        names = [name for name in pair if name in view.definitions.ruleset]
        if len(names) != 2:
            return False
        return not all(view.definitions.observable(name) for name in names)

    @property
    def definitions(self) -> DerivedDefinitions:
        return self._view(BASE_VIEW).definitions

    @property
    def commutativity(self) -> CommutativityAnalyzer:
        return self._view(BASE_VIEW).commutativity

    @property
    def obs_definitions(self) -> ObsExtendedDefinitions:
        return self._view(OBS_VIEW).definitions  # type: ignore[return-value]

    @property
    def obs_commutativity(self) -> CommutativityAnalyzer:
        return self._view(OBS_VIEW).commutativity

    @property
    def termination_analyzer(self) -> TerminationAnalyzer:
        if self._termination_analyzer is None:
            self._termination_analyzer = TerminationAnalyzer(self.definitions)
        return self._termination_analyzer

    @property
    def certified_commutes(self) -> frozenset[frozenset[str]]:
        return frozenset(self._certified_commutes)

    # ------------------------------------------------------------------
    # Session edits and invalidation
    # ------------------------------------------------------------------

    def certify_commutes(self, first: str, second: str) -> None:
        """Certify on every view (the Obs view filters internally).

        An unknown rule raises :class:`AnalysisError`, as
        :meth:`certify_termination` does."""
        for name in (first, second):
            if not self.ruleset.has_rule(name):
                raise AnalysisError(f"unknown rule {name.lower()!r}")
        # Certifying through the base view's analyzer fires the
        # _certification_changed hook, which records the pair, preps the
        # Obs view, and invalidates dependent verdicts.
        self._view(BASE_VIEW).commutativity.certify_commutes(first, second)

    def revoke_certification(self, first: str, second: str) -> bool:
        return self._view(BASE_VIEW).commutativity.revoke_certification(
            first, second
        )

    def certify_termination(self, rule: str) -> None:
        """Termination certifications never affect pair verdicts (the
        Confluence Requirement does not consult termination)."""
        self.termination_analyzer.certify_rule(rule)

    def add_priority(self, higher: str, lower: str) -> None:
        self.ruleset.add_priority(higher, lower)
        self._sync_priorities()

    def remove_priority(self, higher: str, lower: str) -> bool:
        removed = self.ruleset.remove_priority(higher, lower)
        self._sync_priorities()
        return removed

    def _certification_changed(
        self, view_key: str, pair: frozenset[str], added: bool
    ) -> None:
        """Hook fired by a view's CommutativityAnalyzer on certify or
        revoke — including direct calls that bypass the engine API."""
        if view_key == BASE_VIEW:
            if added:
                self._certified_commutes.add(pair)
            else:
                self._certified_commutes.discard(pair)
            # Mirror into the Obs view when it exists and the pair is
            # not Obs-pinned; its own hook will invalidate its memo.
            obs = self._views.get(OBS_VIEW)
            if obs is not None and self._applies_to_view(obs, pair):
                first, second = sorted(pair)
                if added:
                    obs.commutativity.certify_commutes(first, second)
                else:
                    obs.commutativity.revoke_certification(first, second)
            self._invalidate_certification(self._views.get(BASE_VIEW), pair)
        else:
            self._invalidate_certification(self._views.get(OBS_VIEW), pair)

    def _invalidate_certification(
        self, view: _View | None, pair: frozenset[str]
    ) -> None:
        """Drop pair verdicts whose R1 ∪ R2 contains both certified
        rules — the only verdicts that consulted their commutativity."""
        if view is None:
            return
        stale = [
            key
            for key, judgment in view.pair_memo.items()
            if pair <= judgment.members
        ]
        for key in stale:
            del view.pair_memo[key]
        self.stats.invalidations += len(stale)

    def _sync_priorities(self) -> None:
        """Detect priority-relation changes (made through the engine or
        directly on the rule set) and invalidate by closure delta."""
        current = self.ruleset.priorities.pairs()
        if current == self._priority_snapshot:
            return
        delta = current ^ self._priority_snapshot
        self._priority_snapshot = current
        for view in self._views.values():
            stale = [
                key
                for key, judgment in view.pair_memo.items()
                if any(
                    x in judgment.uppers and y in judgment.members
                    for x, y in delta
                )
            ]
            for key in stale:
                del view.pair_memo[key]
            self.stats.invalidations += len(stale)

    def update_ruleset(self, ruleset: RuleSet) -> frozenset[str]:
        """Swap in an edited rule set, invalidating precisely.

        Returns the names whose content fingerprint changed (including
        added and removed rules). Certifications and priority deltas are
        reconciled; memo entries that cannot have been affected survive.
        """
        old_fingerprints = self._fingerprints
        new_fingerprints = {
            rule.name: _rule_fingerprint(rule) for rule in ruleset
        }
        changed = frozenset(
            name
            for name in set(old_fingerprints) | set(new_fingerprints)
            if old_fingerprints.get(name) != new_fingerprints.get(name)
        )
        membership_changed = set(old_fingerprints) != set(new_fingerprints)

        # Capture the old Triggers adjacency before rebuilding: an edit
        # to rule r can change Triggers(s) for any s (via Triggered-By),
        # which changes which candidates s contributes to a fixpoint.
        old_triggers = {}
        base = self._views.get(BASE_VIEW)
        if base is not None and not membership_changed:
            old_triggers = {
                name: base.definitions.triggers(name)
                for name in base.definitions.rule_names
            }

        self.ruleset = ruleset
        self._fingerprints = new_fingerprints
        if changed:
            self._pruning_counts = None
        self._certified_commutes = {
            pair
            for pair in self._certified_commutes
            if all(name in new_fingerprints for name in pair)
        }
        surviving_termination_certs = frozenset()
        if self._termination_analyzer is not None:
            surviving_termination_certs = frozenset(
                name
                for name in self._termination_analyzer.certified_rules
                if name in new_fingerprints
            )
        self._termination_analyzer = None

        if changed:
            for store in self._reason_stores.values():
                dropped = [pair for pair in store if pair & changed]
                for pair in dropped:
                    del store[pair]
                self.stats.invalidations += len(dropped)

        old_views = self._views
        self._views = {}
        for key, old_view in old_views.items():
            view = self._view(key)
            if not self.memoize:
                continue
            if membership_changed:
                self.stats.invalidations += len(old_view.pair_memo)
                continue  # any rule may join a fixpoint: start cold
            affected = set(changed)
            for name in view.definitions.rule_names:
                if old_triggers.get(name) != view.definitions.triggers(name):
                    affected.add(name)
            for key2, judgment in old_view.pair_memo.items():
                if affected & judgment.uppers:
                    self.stats.invalidations += 1
                    continue
                view.pair_memo[key2] = judgment

        for rule in surviving_termination_certs:
            self.termination_analyzer.certify_rule(rule)
        # The edited rule set may also carry different priorities
        # (precedes/follows clauses): invalidate by closure delta.
        self._sync_priorities()
        return changed

    # ------------------------------------------------------------------
    # Restricted sub-sessions (Section 9)
    # ------------------------------------------------------------------

    def restrict(self, names: Iterable[str]) -> "AnalysisEngine":
        """An engine over ``ruleset.subset(names)`` that shares this
        engine's raw Lemma 6.1 memo and stats, and inherits its
        certifications (commutativity and termination) and priorities.

        Raw judgments are universe-independent (every Lemma 6.1
        condition is a membership test on the two rules' own event
        sets), so sharing the store across the restriction is sound.
        """
        keep = frozenset(name.lower() for name in names)
        sub = AnalysisEngine(
            self.ruleset.subset(keep),
            refine=self.refine,
            granularity=self.granularity,
            column_dataflow=self.column_dataflow,
            memoize=self.memoize,
            stats=self.stats,
            reason_stores=self._reason_stores,
        )
        for pair in sorted(self._certified_commutes, key=sorted):
            if pair <= keep:
                first, second = sorted(pair)
                sub.certify_commutes(first, second)
        if self._termination_analyzer is not None:
            for rule in sorted(self._termination_analyzer.certified_rules):
                if rule in keep:
                    sub.certify_termination(rule)
        return sub

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def analyze_termination(self) -> TerminationAnalysis:
        start = time.perf_counter()
        analysis = self.termination_analyzer.analyze()
        self.stats.add_time("termination", time.perf_counter() - start)
        return analysis

    def analyze_confluence(
        self,
        universe: frozenset[str] | None = None,
        *,
        view: str = BASE_VIEW,
    ) -> ConfluenceAnalysis:
        """The Confluence Requirement over *universe*, served from the
        pair-verdict memo wherever valid."""
        start = time.perf_counter()
        self._sync_priorities()
        v = self._view(view)
        if universe is None:
            universe = frozenset(v.definitions.rule_names)
        names = sorted(universe)
        universe = frozenset(names)  # one shared object: its hash caches
        priorities = self.ruleset.priorities
        shared = self._shared_pair_memo(v)
        extended = v.definitions.extended_rules

        violations = []
        pairs_examined = 0
        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                if not priorities.are_unordered(first, second):
                    continue
                pairs_examined += 1
                key = (frozenset((first, second)), universe)
                judgment = v.pair_memo.get(key) if self.memoize else None
                if judgment is None and shared is not None:
                    base = shared.get(key)
                    if base is not None and base.members.isdisjoint(extended):
                        judgment = base
                if judgment is None:
                    judgment = judge_unordered_pair(
                        v.definitions,
                        priorities,
                        v.commutativity,
                        first,
                        second,
                        universe,
                    )
                    self.stats.pairs_judged += 1
                    self.stats.fixpoint_iterations += judgment.iterations
                    if shared is not None and judgment.members.isdisjoint(
                        extended
                    ):
                        shared[key] = judgment
                    elif self.memoize:
                        v.pair_memo[key] = judgment
                else:
                    self.stats.pair_memo_hits += 1
                violations.extend(judgment.violations)

        self.stats.confluence_passes += 1
        self.stats.add_time(
            f"confluence[{view}]", time.perf_counter() - start
        )
        return ConfluenceAnalysis(
            requirement_holds=not violations,
            violations=violations,
            pairs_examined=pairs_examined,
            universe=universe,
        )

    def _shared_pair_memo(self, view: _View) -> dict | None:
        """The base pair memo, when *view* is the Obs view and may share
        it (see the module docstring); None otherwise.

        Sharing needs both views to hold the same certifications off the
        Obs-pinned pairs. The engine mirrors every certification, but one
        made on the Obs view's analyzer directly is not mirrored back, so
        that case turns sharing off."""
        if view.key == BASE_VIEW or not self.memoize:
            return None

        def unpinned(pairs):
            return {
                pair for pair in pairs if self._applies_to_view(view, pair)
            }

        if unpinned(view.commutativity.certified_pairs) != unpinned(
            self._certified_commutes
        ):
            return None
        return self._view(BASE_VIEW).pair_memo

    def analyze_partial_confluence(self, tables: Iterable[str]):
        from repro.analysis.partial_confluence import PartialConfluenceAnalyzer

        start = time.perf_counter()
        analyzer = PartialConfluenceAnalyzer(
            self.definitions,
            self.ruleset.priorities,
            self.commutativity,
            self.termination_analyzer,
            engine=self,
        )
        analysis = analyzer.analyze(tables)
        self.stats.add_time("partial_confluence", time.perf_counter() - start)
        return analysis

    def analyze_observable_determinism(self):
        from repro.analysis.observable import ObservableDeterminismAnalyzer

        start = time.perf_counter()
        analyzer = ObservableDeterminismAnalyzer(
            self.ruleset,
            priorities=self.ruleset.priorities,
            termination_analyzer=self.termination_analyzer,
            engine=self,
        )
        analysis = analyzer.analyze()
        self.stats.add_time("observable", time.perf_counter() - start)
        return analysis

    # ------------------------------------------------------------------
    # Precision accounting
    # ------------------------------------------------------------------

    def pair_pruning_counts(self) -> dict[str, int]:
        """Raw noncommutative unordered-pair counts at each precision
        tier — the coarse table ablation, the paper's column-level
        events, and the attribute-level dataflow refinement — plus the
        total pair count.

        Quantifies how much each tier prunes. Every tier is sound and
        each only removes reasons the coarser one has, so per pair
        dataflow-noncommutative ⇒ column-noncommutative ⇒
        table-noncommutative. The tier whose settings equal the
        engine's (``column`` by default, ``dataflow`` under
        ``column_dataflow``, ``table`` under ``granularity="table"``) is
        read from the base view's raw memo. Walking outward from it, a
        coarser tier is judged only on the pairs the next finer tier
        calls commutative, and a finer tier only on the pairs the next
        coarser tier calls noncommutative: ``total_pairs`` raw
        judgments beyond the memo at the default settings.
        Certifications and priorities are deliberately ignored: this
        counts what the *syntactic* analysis proves. Memoized per
        rule-set content (the counts cannot change under
        certify/priority edits).
        """
        if self._pruning_counts is not None:
            return dict(self._pruning_counts)
        start = time.perf_counter()
        definitions = self.definitions
        names = sorted(definitions.rule_names)
        pairs = [
            (first, second)
            for i, first in enumerate(names)
            for second in names[i + 1 :]
        ]
        own = [
            (granularity, column_dataflow)
            for __, granularity, column_dataflow in PRECISION_TIERS
        ].index((self.granularity, self.column_dataflow))
        # per tier, per pair: noncommutative?
        verdicts: list[list[bool]] = [[] for __ in PRECISION_TIERS]
        verdicts[own] = [
            bool(self.commutativity.noncommutativity_reasons(*pair))
            for pair in pairs
        ]
        for tier in [*range(own - 1, -1, -1), *range(own + 1, len(verdicts))]:
            __, granularity, column_dataflow = PRECISION_TIERS[tier]
            judge = CommutativityAnalyzer(
                definitions,
                granularity=granularity,
                refine=self.refine,
                column_dataflow=column_dataflow,
            )
            if tier < own:  # finer-noncommutative settles it here
                verdicts[tier] = [
                    settled or bool(judge.compute_reasons(*pair))
                    for pair, settled in zip(pairs, verdicts[tier + 1])
                ]
            else:  # coarser-commutative settles it here
                verdicts[tier] = [
                    unsettled and bool(judge.compute_reasons(*pair))
                    for pair, unsettled in zip(pairs, verdicts[tier - 1])
                ]
        counts: dict[str, int] = {"total_pairs": len(pairs)}
        for (label, __, __), tier_verdicts in zip(PRECISION_TIERS, verdicts):
            counts[f"noncommutative_{label}"] = sum(tier_verdicts)
        self._pruning_counts = counts
        self.stats.add_time("pair_pruning", time.perf_counter() - start)
        return dict(counts)
