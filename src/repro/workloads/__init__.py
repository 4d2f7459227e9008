"""Workload generators and case-study rule applications.

* :mod:`repro.workloads.generator` — seeded random rule sets, databases
  and initial transitions, used by the soundness sweeps and benchmarks;
* :mod:`repro.workloads.constraints` — [CW90]-style derivation of
  integrity-maintenance rules from referential constraints;
* :mod:`repro.workloads.powernet` — the power-network design case study
  (a triggering-graph cycle that terminates by monotonic decrease);
* :mod:`repro.workloads.applications` — medium-sized sample applications
  for the Section 6.4 repair-loop, partial-confluence and observable-
  determinism experiments;
* :mod:`repro.workloads.queries` — seeded query workloads for the
  query-engine benchmark gate (join-heavy and selective-filter shapes);
* :mod:`repro.workloads.partitioned` — the multi-domain drain
  workload (four table-disjoint domains, every hot scan keyed on
  ``region``) behind the probe-vs-reference equivalence tests and the
  crosscheck's ``partitioned`` case;
* :mod:`repro.workloads.streaming` — the streaming-ingestion workload
  (many event streams, per-region alert rules, one shared hot counter)
  and the multi-threaded driver behind the concurrent-server gate;
* :mod:`repro.workloads.iot` — the 10⁶-row IoT telemetry workload (a
  stratified, confluent-by-construction alert cascade over a large
  fact table) feeding the declarative cross-check at scale;
* :mod:`repro.workloads.fraud` — the 10⁶-row fraud-screening workload
  (stratified score/hold/case cascade), the second domain generator
  behind the semantics gate.
"""

from repro.workloads.generator import (
    GeneratorConfig,
    LayeredRuleSetGenerator,
    RandomInstanceGenerator,
    RandomRuleSetGenerator,
    StratifiedProgramGenerator,
)
from repro.workloads.constraints import referential_integrity_rules
from repro.workloads.powernet import (
    power_network_workload,
    scaled_power_network_workload,
)
from repro.workloads.iot import IotWorkload, iot_workload
from repro.workloads.fraud import FraudWorkload, fraud_workload
from repro.workloads.applications import (
    apply_procurement_repairs,
    audit_application,
    inventory_application,
    procurement_application,
    scratch_table_application,
)
from repro.workloads.queries import (
    join_heavy_workload,
    selective_filter_workload,
)
from repro.workloads.partitioned import (
    PartitionedWorkload,
    partitioned_workload,
)
from repro.workloads.streaming import (
    DriveReport,
    StreamingBatch,
    StreamingWorkload,
    drive_streaming,
    streaming_workload,
)

__all__ = [
    "GeneratorConfig",
    "LayeredRuleSetGenerator",
    "RandomInstanceGenerator",
    "RandomRuleSetGenerator",
    "StratifiedProgramGenerator",
    "referential_integrity_rules",
    "power_network_workload",
    "scaled_power_network_workload",
    "IotWorkload",
    "iot_workload",
    "FraudWorkload",
    "fraud_workload",
    "apply_procurement_repairs",
    "audit_application",
    "inventory_application",
    "procurement_application",
    "scratch_table_application",
    "join_heavy_workload",
    "selective_filter_workload",
    "PartitionedWorkload",
    "partitioned_workload",
    "DriveReport",
    "StreamingBatch",
    "StreamingWorkload",
    "drive_streaming",
    "streaming_workload",
]
