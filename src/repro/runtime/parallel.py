"""Partition-parallel rule scheduling.

Section 9 observes that a rule set partitions into groups that share no
tables and no priority edges. Rules from different groups trivially
commute: neither reads or writes anything the other touches, and no
priority orders one before the other. This module uses that partition
as a *runtime scheduler's correctness oracle* — rule applications from
different groups may be reordered, and therefore run concurrently,
without changing the reachable final states.

The :class:`ParallelScheduler` drives a
:class:`~repro.runtime.processor.RuleProcessor` to quiescence the same
way :meth:`RuleProcessor.run` does, but each round *admits a batch* of
eligible rules instead of one:

* the strategy's pick always leads the batch (so a singleton batch
  degenerates to exactly the serial loop);
* a further eligible rule joins iff it lives in a static partition
  (:func:`~repro.analysis.partitioning.partition_rules`) that no
  admitted member lives in. Rules sharing a partition serialize.

Execution: every batch member runs on a copy-on-write
:meth:`RuleProcessor.fork` from the same base state, on the shared
worker pool. Merging then replays each fork's folded
:class:`~repro.transitions.net_effect.NetEffect` onto the main
processor in batch order — tables sorted by name, deletes then updates
then inserts in ascending tid order, inserts re-allocating fresh tids —
a canonical order fully determined by the batch, so parallel execution
is deterministic run-to-run. Net-effect folding guarantees delete and
update entries reference only pre-batch tids (an insert-then-update
folds into the insert; an insert-then-delete annihilates), and
members from different partitions write disjoint tables, so no two
members' effects overlap and replaying onto the base is exactly a
serialization of the batch: member k's marker advances just before its
effects replay, which reproduces the serial discipline where a rule
sees its own operations as a fresh transition and earlier-considered
rules see later rules' operations as pending.

A fork that rolls back aborts the batch wholesale: rollback restores
the *transaction* snapshot, which does not compose with merging, so the
scheduler discards every fork and re-considers just the strategy's pick
serially on the main processor (``rollback_fallbacks``). Observable
actions merge in batch order, preserving per-rule observable sequences
across the equivalence harness.
"""

from __future__ import annotations

import time

from repro.analysis.derived import DerivedDefinitions
from repro.analysis.partitioning import partition_rules
from repro.engine import partition as PART
from repro.errors import RuleProcessingLimitExceeded
from repro.runtime.processor import ConsiderationOutcome, ProcessingResult
from repro.stats import StatsBase
from repro.transitions.net_effect import NetEffect


class SchedulerStats(StatsBase):
    """Global work counters for the parallel scheduler.

    ``parallel_considerations`` counts rules that ran on batch forks;
    ``serial_considerations`` counts singleton rounds (including
    rollback fallbacks). ``merge_seconds`` is the wall time spent
    replaying fork effects onto the main processor (the ``--profile``
    ``parallel_merge`` phase).
    """

    FIELDS = (
        "rounds",
        "batches",
        "serial_considerations",
        "parallel_considerations",
        "forks",
        "rollback_fallbacks",
        "merged_primitives",
        "merge_seconds",
    )
    SECONDS = frozenset({"merge_seconds"})


STATS = SchedulerStats()


class ParallelScheduler:
    """Batch-parallel quiescence loop over one rule processor.

    Built lazily by :meth:`RuleProcessor.run` when the session config
    says ``scheduler="parallel"``, and cached on the processor so the
    static partition map persists across assertion points.
    """

    def __init__(self, processor) -> None:
        self.processor = processor
        ruleset = processor.ruleset
        self._partition_of: dict[str, int] = {}
        for i, group in enumerate(
            partition_rules(DerivedDefinitions(ruleset), ruleset.priorities)
        ):
            for name in group:
                self._partition_of[name] = i

    # ------------------------------------------------------------------
    # Batch admission
    # ------------------------------------------------------------------

    def _independent(self, first: str, second: str) -> bool:
        """May *first* and *second* run concurrently in one batch? True
        iff they belong to different static partitions (no shared
        tables, no priority edge — trivially commuting)."""
        return self._partition_of[first] != self._partition_of[second]

    def _admit(self, eligible: tuple[str, ...], limit: int) -> list[str]:
        """The batch for this round: the strategy's pick plus every
        further eligible rule whose partition no admitted member shares,
        in eligibility (definition) order."""
        first = self.processor.strategy.choose(eligible)
        batch = [first]
        for rule in eligible:
            if rule == first or len(batch) >= limit:
                continue
            if all(self._independent(member, rule) for member in batch):
                batch.append(rule)
        return batch

    # ------------------------------------------------------------------
    # Batch execution and merge
    # ------------------------------------------------------------------

    def _replay(self, fork, net: NetEffect) -> None:
        """Merge a fork's folded net effect into the main processor in
        canonical order (sorted tables; D, U, I in ascending tid order).

        A table the fork only deleted from or updated in is *adopted*:
        the fork's copy-on-write extension is exactly base state plus
        the fork's writes, and its delete/update entries reference
        pre-batch tids, so grafting the object wholesale and appending
        the log records is O(ops) in the log alone. A table the fork
        inserted into is replayed row-by-row instead, because inserts
        must re-allocate tids from the main database's counter (sibling
        forks allocate from identical counter copies, so fork-side tids
        may collide across the batch). Either way tuples are not
        re-validated — they passed schema checks on the fork.
        """
        proc = self.processor
        database, log = proc.database, proc.log
        count = 0
        for name in sorted(net.tables):
            effect = net.table(name)
            if not effect.inserted:
                database.adopt_table(name, fork.database.table(name))
                for tid in sorted(effect.deleted):
                    log.record_delete(name, tid, effect.deleted[tid])
                for tid in sorted(effect.updated):
                    old, new = effect.updated[tid]
                    log.record_update(name, tid, old, new)
                count += len(effect.deleted) + len(effect.updated)
                continue
            data = database.table(name)
            for tid in sorted(effect.deleted):
                old = data.delete(tid)
                log.record_delete(name, tid, old)
            for tid in sorted(effect.updated):
                old, new = effect.updated[tid]
                data.update(tid, new)
                log.record_update(name, tid, old, new)
            for tid in sorted(effect.inserted):
                values = effect.inserted[tid]
                fresh = database.allocate_tid()
                data.insert(fresh, values)
                log.record_insert(name, fresh, values)
            count += (
                len(effect.deleted) + len(effect.updated) + len(effect.inserted)
            )
        STATS.merged_primitives += count

    def _run_batch(
        self, batch: list[str], eligible: tuple[str, ...]
    ) -> list[ConsiderationOutcome]:
        proc = self.processor
        base_position = proc.log.position
        base_observables = len(proc.observables)
        forks = [proc.fork() for __ in batch]
        STATS.forks += len(forks)

        def consider_on(fork, rule):
            def task():
                return fork.consider(rule, eligible=eligible)

            return task

        outcomes = PART.map_shards(
            consider_on(fork, rule) for fork, rule in zip(forks, batch)
        )

        if any(outcome.rolled_back for outcome in outcomes):
            # Rollback restores the transaction snapshot — incompatible
            # with merging sibling effects. Discard the whole batch and
            # re-run just the strategy's pick serially from the (still
            # untouched) base state.
            STATS.rollback_fallbacks += 1
            STATS.serial_considerations += 1
            return [proc.consider(batch[0], eligible=eligible)]

        merged: list[ConsiderationOutcome] = []
        started = time.perf_counter()
        for fork, rule, outcome in zip(forks, batch, outcomes):
            before = proc.log.position
            # The serial discipline, per member: marker first, then the
            # member's own operations — the rule sees them as a fresh
            # transition; earlier-merged members see them as pending.
            proc.mark_considered(rule, before)
            if outcome.operations_performed:
                self._replay(
                    fork,
                    NetEffect.from_primitives(
                        fork.log.iter_range(base_position, fork.log.position)
                    ),
                )
            proc.observables.extend(fork.observables[base_observables:])
            merged.append(
                ConsiderationOutcome(
                    rule=rule,
                    condition_was_true=outcome.condition_was_true,
                    operations_performed=proc.log.position - before,
                )
            )
            STATS.parallel_considerations += 1
        STATS.merge_seconds += time.perf_counter() - started
        return merged

    # ------------------------------------------------------------------
    # The quiescence loop
    # ------------------------------------------------------------------

    def run(self) -> ProcessingResult:
        """Process rules at an assertion point until quiescence.

        Matches :meth:`RuleProcessor.run` step for step — quiescence
        marker advance, rollback outcome, ``max_steps`` discipline —
        except that each round may consider a batch of rules from
        different partitions instead of a single rule.
        """
        proc = self.processor
        steps: list[ConsiderationOutcome] = []
        observables_before = len(proc.observables)
        while True:
            eligible = proc.eligible_rules()
            if not eligible:
                proc.mark_assertion_point()
                outcome = "rolled_back" if proc._rolled_back else "quiescent"
                return ProcessingResult(
                    outcome=outcome,
                    steps=steps,
                    observables=proc.observables[observables_before:],
                )
            if len(steps) >= proc.max_steps:
                raise RuleProcessingLimitExceeded(proc.max_steps)
            STATS.rounds += 1
            batch = self._admit(eligible, proc.max_steps - len(steps))
            if len(batch) == 1:
                STATS.serial_considerations += 1
                steps.append(proc.consider(batch[0], eligible=eligible))
            else:
                STATS.batches += 1
                steps.extend(self._run_batch(batch, eligible))
