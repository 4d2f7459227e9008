"""A fraud-screening workload: a 10⁶-row stratified hold cascade.

Card transactions land in one large fact table; rules score accounts,
place holds, and open cases in a strictly layered cascade — the second
10⁶-row domain generator of ROADMAP item 5, shaped like a real
risk-screening pipeline rather than :mod:`repro.workloads.iot`'s
monitoring pipeline:

* ``transactions(id, account, region, amount)`` — the 10⁶-row
  (default) ledger;
* ``account_risk(account, region, score, held)`` — one row per
  account;
* ``region_audit(region, cases, backlog)`` — one row per region.

Three rules per region::

    create rule fraud_score_r{r} on transactions
    when inserted
    if exists (select * from inserted where region = {r} and amount > 9500)
    then update account_risk set score = score + 2 where region = {r}

    create rule fraud_hold_r{r} on account_risk
    when updated(score)
    if exists (select * from account_risk
               where region = {r} and score >= 4 and held = 0)
    then update account_risk set held = 1
         where region = {r} and score >= 4 and held = 0

    create rule fraud_case_r{r} on account_risk
    when updated(held)
    if exists (select * from account_risk
               where region = {r} and held = 1)
    then update region_audit set cases = 1, backlog = 5
         where region = {r} and cases < 1

Stratified: ``fraud_score`` is triggered only by inserts into
``transactions`` and writes only ``score``; ``fraud_hold`` is triggered
only by ``updated(score)`` and writes only ``held`` (same table,
*different* column — no self-edge in the triggering graph);
``fraud_case`` is triggered only by ``updated(held)`` and writes only
``region_audit``. Confluent by construction: regions write disjoint row
slices, the one relative write (``score + 2``) fires exactly once per
region per batch, and the hold/case layers are idempotent absolute
updates whose WHERE re-tests the guard they establish (``held = 0``,
``cases < 1``) — so the workload declares ``certified_confluent=True``
for the declarative cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import Schema, schema_from_spec

_SCORE_TEMPLATE = """
create rule fraud_score_r{region} on transactions
when inserted
if exists (select * from inserted where region = {region} and amount > 9500)
then update account_risk set score = score + 2 where region = {region}
"""

_HOLD_TEMPLATE = """
create rule fraud_hold_r{region} on account_risk
when updated(score)
if exists (select * from account_risk
           where region = {region} and score >= 4 and held = 0)
then update account_risk set held = 1
     where region = {region} and score >= 4 and held = 0
"""

_CASE_TEMPLATE = """
create rule fraud_case_r{region} on account_risk
when updated(held)
if exists (select * from account_risk
           where region = {region} and held = 1)
then update region_audit set cases = 1, backlog = 5
     where region = {region} and cases < 1
"""


@dataclass
class FraudWorkload:
    """Schema, rules, the loaded instance, and its seeded batch."""

    schema: Schema
    ruleset: RuleSet
    database: Database
    regions: int
    accounts: int
    rows: int
    batch: tuple[str, ...]
    #: unique final by construction (see module docstring)
    certified_confluent: bool = True

    def ingest_transition(self) -> list[str]:
        return list(self.batch)


def fraud_schema() -> Schema:
    return schema_from_spec(
        {
            "transactions": ["id", "account", "region", "amount"],
            "account_risk": ["account", "region", "score", "held"],
            "region_audit": ["region", "cases", "backlog"],
        }
    )


def fraud_workload(
    rows: int = 1_000_000,
    regions: int = 16,
    accounts_per_region: int = 64,
    batch_rows: int = 1_024,
    seed: int = 0,
) -> FraudWorkload:
    """Build the workload: *rows* settled transactions plus one seeded
    authorization batch of *batch_rows* new transactions.

    Settled amounts are uniform on ``1..9500`` (below the screening
    threshold); batch amounts are uniform on ``1..10000``, so ~5% of
    each batch trips ``> 9500`` per region. Accounts start with
    ``score = 2``: one qualifying batch pushes a region's accounts to
    the hold threshold and cascades to a case.
    """
    rng = random.Random(seed)
    schema = fraud_schema()
    accounts = regions * accounts_per_region
    rules = "\n".join(
        template.format(region=region)
        for region in range(regions)
        for template in (_SCORE_TEMPLATE, _HOLD_TEMPLATE, _CASE_TEMPLATE)
    )
    ruleset = RuleSet.parse(rules, schema)

    database = Database(schema)
    database.load(
        "transactions",
        [
            (i, i % accounts, (i % accounts) % regions, rng.randint(1, 9500))
            for i in range(rows)
        ],
    )
    database.load(
        "account_risk",
        [(a, a % regions, 2, 0) for a in range(accounts)],
    )
    database.load("region_audit", [(r, 0, 0) for r in range(regions)])

    batch_values = []
    for i in range(batch_rows):
        account = rng.randrange(accounts)
        batch_values.append(
            f"({rows + i}, {account}, {account % regions}, "
            f"{rng.randint(1, 10_000)})"
        )
    batch = (f"insert into transactions values {', '.join(batch_values)}",)
    return FraudWorkload(
        schema=schema,
        ruleset=ruleset,
        database=database,
        regions=regions,
        accounts=accounts,
        rows=rows,
        batch=batch,
    )
