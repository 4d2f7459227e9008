"""An IoT telemetry workload: a 10⁶-row stratified alert cascade.

A fleet of devices streams readings into one large fact table; rules
maintain small per-device and per-region state in a strictly layered
cascade (ROADMAP item 5's "IoT at 10⁶ rows"):

* ``readings(id, device, region, value)`` — the 10⁶-row (default)
  telemetry firehose;
* ``device_status(device, region, alerts, attention)`` — one row per
  device;
* ``region_health(region, degraded, severity)`` — one row per region;
* ``ops_queue(region, directive)`` — one row per region, the cascade's
  terminal layer.

Three rules per region, one per layer::

    create rule iot_alert_r{r} on readings
    when inserted
    if exists (select * from inserted where region = {r} and value > 950)
    then update device_status set alerts = alerts + 1 where region = {r}

    create rule iot_degrade_r{r} on device_status
    when updated(alerts)
    if exists (select * from device_status
               where region = {r} and alerts >= 2)
    then update region_health set degraded = 1, severity = 2
         where region = {r} and degraded < 1

    create rule iot_dispatch_r{r} on region_health
    when updated(degraded)
    if exists (select * from region_health
               where region = {r} and degraded = 1)
    then update ops_queue set directive = 7
         where region = {r} and directive < 7

The triggering graph is acyclic by construction — layer 1 is triggered
only by inserts into ``readings`` and writes only ``alerts``; layer 2
is triggered only by ``updated(alerts)`` and writes only
``degraded``/``severity``; layer 3 is triggered only by
``updated(degraded)`` and writes only ``directive`` — so the program is
**stratified** (the refined graph's condensation is the three layers).
It is also **confluent by construction**: distinct regions write
disjoint row slices, the only non-absolute write (``alerts + 1``) is
fired exactly once per region per batch (nothing a rule does re-inserts
into ``readings``), and layers 2/3 perform idempotent absolute updates
guarded by their own post-condition (``degraded < 1``, ``directive <
7``), so every interleaving and firing multiplicity lands on the same
final database — the declarative cross-check treats the workload as
certified-confluent (``certified_confluent=True``), the Section 6.1
user-certification escape hatch.

Alert conditions read only the ``inserted`` transition table and every
base-table scan carries a ``region = {r}`` equality conjunct, so
planned/rete sessions touch O(devices-per-region) rows per firing while
the 10⁶ base rows exercise load, canonicalization, checkpointing and
recovery at scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.database import Database
from repro.rules.ruleset import RuleSet
from repro.schema.catalog import Schema, schema_from_spec

_ALERT_TEMPLATE = """
create rule iot_alert_r{region} on readings
when inserted
if exists (select * from inserted where region = {region} and value > 950)
then update device_status set alerts = alerts + 1 where region = {region}
"""

_DEGRADE_TEMPLATE = """
create rule iot_degrade_r{region} on device_status
when updated(alerts)
if exists (select * from device_status
           where region = {region} and alerts >= 2)
then update region_health set degraded = 1, severity = 2
     where region = {region} and degraded < 1
"""

_DISPATCH_TEMPLATE = """
create rule iot_dispatch_r{region} on region_health
when updated(degraded)
if exists (select * from region_health
           where region = {region} and degraded = 1)
then update ops_queue set directive = 7
     where region = {region} and directive < 7
"""


@dataclass
class IotWorkload:
    """Schema, rules, the loaded instance, and its seeded batch."""

    schema: Schema
    ruleset: RuleSet
    database: Database
    regions: int
    devices: int
    rows: int
    #: the seeded telemetry batch driving the cascade (source strings)
    batch: tuple[str, ...]
    #: the workload's construction guarantees a unique final database
    #: (disjoint region slices + idempotent absolute updates); see the
    #: module docstring for the argument
    certified_confluent: bool = True

    def ingest_transition(self) -> list[str]:
        return list(self.batch)


def iot_schema() -> Schema:
    return schema_from_spec(
        {
            "readings": ["id", "device", "region", "value"],
            "device_status": ["device", "region", "alerts", "attention"],
            "region_health": ["region", "degraded", "severity"],
            "ops_queue": ["region", "directive"],
        }
    )


def iot_workload(
    rows: int = 1_000_000,
    regions: int = 16,
    devices_per_region: int = 32,
    batch_rows: int = 1_024,
    seed: int = 0,
) -> IotWorkload:
    """Build the workload: *rows* historical readings plus one seeded
    ingestion batch of *batch_rows* new readings.

    Historical values are uniform on ``1..950`` (below the alert
    threshold — history never re-triggers); batch values are uniform on
    ``1..1000``, so ~5% of each batch clears ``> 950`` and, with the
    default sizes, every region raises its alert count and cascades to
    the terminal layer.
    """
    rng = random.Random(seed)
    schema = iot_schema()
    devices = regions * devices_per_region
    rules = "\n".join(
        template.format(region=region)
        for region in range(regions)
        for template in (_ALERT_TEMPLATE, _DEGRADE_TEMPLATE, _DISPATCH_TEMPLATE)
    )
    ruleset = RuleSet.parse(rules, schema)

    database = Database(schema)
    database.load(
        "readings",
        [
            (i, i % devices, (i % devices) % regions, rng.randint(1, 950))
            for i in range(rows)
        ],
    )
    database.load(
        "device_status",
        [(d, d % regions, 1, 0) for d in range(devices)],
    )
    database.load("region_health", [(r, 0, 0) for r in range(regions)])
    database.load("ops_queue", [(r, 0) for r in range(regions)])

    batch_values = []
    for i in range(batch_rows):
        device = rng.randrange(devices)
        batch_values.append(
            f"({rows + i}, {device}, {device % regions}, "
            f"{rng.randint(1, 1000)})"
        )
    batch = (f"insert into readings values {', '.join(batch_values)}",)
    return IotWorkload(
        schema=schema,
        ruleset=ruleset,
        database=database,
        regions=regions,
        devices=devices,
        rows=rows,
        batch=batch,
    )
