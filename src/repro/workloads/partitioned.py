"""A multi-domain drain workload (ROADMAP items 3 and 5).

Four independent business domains — inventory, payments, shipping,
fraud — each with a large fact table distributed over *regions* and a
tiny per-region control table driving a drain loop:

* ``{domain}(id, region, level)`` — the 10⁵-row (default) fact table;
* ``{domain}_ctl(region, pending)`` — one row per region; ``pending``
  is the number of remaining damping passes for that region.

One rule per (domain, region) pair::

    create rule {domain}_r{r} on {domain}_ctl
    when inserted, updated(pending)
    if exists (select * from {domain}_ctl where region = {r} and pending > 0)
    then update {domain} set level = level - 1
         where region = {r} and level > 100;
         update {domain}_ctl set pending = pending - 1
         where region = {r} and pending > 0

Every action's hot scan carries a ``region = {r}`` equality conjunct,
so the planned executor probes the fact table's ``region`` index
instead of scanning every row. The four domains share no tables and no
priorities, so they fall into four static rule partitions
(:func:`~repro.analysis.partitioning.partition_rules`); rules *within*
a domain overlap on write tables. Termination is by monotonic decrease
of ``sum(pending)``; the drain depths and the hot-row population are
seeded, so the workload is reproducible (the equivalence harness
derives seeds via ``tests/seeding.py``).
"""

from __future__ import annotations

import random

from dataclasses import dataclass

from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import Schema, schema_from_spec

#: the default domain set (one static rule partition each)
DOMAINS = ("inventory", "payments", "shipping", "fraud")

_RULE_TEMPLATE = """
create rule {domain}_r{region} on {domain}_ctl
when inserted, updated(pending)
if exists (select * from {domain}_ctl where region = {region} and pending > 0)
then update {domain} set level = level - 1
     where region = {region} and level > 100;
     update {domain}_ctl set pending = pending - 1
     where region = {region} and pending > 0
"""


@dataclass
class PartitionedWorkload:
    """Schema, rules, a seeded instance, and its driving transition."""

    schema: Schema
    ruleset: RuleSet
    database: Database
    domains: tuple[str, ...]
    regions: int
    #: the seeded per-(domain, region) drain depths of the transition
    pending: dict[tuple[str, int], int]

    def drain_transition(self) -> list[str]:
        """The user transition: set every region's pending drain depth."""
        return [
            f"update {domain}_ctl set pending = {depth} "
            f"where region = {region}"
            for (domain, region), depth in sorted(self.pending.items())
        ]


def partitioned_schema(domains: tuple[str, ...] = DOMAINS) -> Schema:
    spec: dict = {}
    for domain in domains:
        spec[domain] = ["id", "region", "level"]
        spec[f"{domain}_ctl"] = ["region", "pending"]
    return schema_from_spec(spec)


def partitioned_workload(
    rows: int = 100_000,
    regions: int = 4,
    domains: tuple[str, ...] = DOMAINS,
    seed: int = 0,
    hot_rows_per_region: int = 100,
) -> PartitionedWorkload:
    """Build the workload: *rows* fact rows split evenly over *domains*.

    Each fact row lands in a seeded region; ``hot_rows_per_region``
    rows per (domain, region) get levels above the damping floor so
    every drain pass updates a bounded, seeded set.
    """
    rng = random.Random(seed)
    schema = partitioned_schema(domains)
    rules = "\n".join(
        _RULE_TEMPLATE.format(domain=domain, region=region)
        for domain in domains
        for region in range(regions)
    )
    ruleset = RuleSet.parse(rules, schema)

    database = Database(schema)
    per_domain = rows // len(domains)
    for domain in domains:
        facts = []
        hot_left = {region: hot_rows_per_region for region in range(regions)}
        for i in range(per_domain):
            region = rng.randrange(regions)
            if hot_left[region] > 0:
                hot_left[region] -= 1
                level = 100 + rng.randint(2, 8)
            else:
                level = rng.randint(1, 100)
            facts.append((i, region, level))
        database.load(domain, facts)
        database.load(
            f"{domain}_ctl", [(region, 0) for region in range(regions)]
        )

    pending = {
        (domain, region): rng.randint(3, 6)
        for domain in domains
        for region in range(regions)
    }
    return PartitionedWorkload(
        schema=schema,
        ruleset=ruleset,
        database=database,
        domains=tuple(domains),
        regions=regions,
        pending=pending,
    )
