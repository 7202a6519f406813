"""Fault injection, failure detection, recovery and elastic scaling.

The paper's elastic-averaging architecture couples N pipelines only
through α-pulls toward a shared reference, which makes pipelines
individually expendable — this subsystem turns that observation into a
tested fault-tolerance story (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` — seeded, deterministic
  :class:`FaultPlan` schedules (crashes, stragglers, link faults)
  injected into the discrete-event simulator;
* :mod:`repro.resilience.detector` — heartbeat/timeout failure detection
  over the simulated progress clock and the trainer's iteration clock;
* :mod:`repro.resilience.recovery` — pluggable policies: evict (α
  renormalization), rejoin-from-reference, restart-from-checkpoint,
  straggler re-tuning;
* :mod:`repro.resilience.chaos` — the ``repro chaos`` harness: seeded
  end-to-end scenarios with recovery-timeline reports and an oracle
  cross-check of post-recovery numerics.
"""

from repro.resilience.chaos import (
    SCENARIOS,
    ChaosReport,
    ChaosScenario,
    run_scenario,
    tiny_chaos_spec,
)
from repro.resilience.detector import FailureReport, HeartbeatDetector, IterationHeartbeat
from repro.resilience.faults import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan
from repro.resilience.recovery import (
    EvictPipeline,
    RecoveryManager,
    RecoveryPolicy,
    RecoveryRecord,
    RejoinPipeline,
    RestartFromCheckpoint,
    RetunePlan,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FailureReport",
    "HeartbeatDetector",
    "IterationHeartbeat",
    "RecoveryPolicy",
    "RecoveryRecord",
    "RecoveryManager",
    "EvictPipeline",
    "RejoinPipeline",
    "RestartFromCheckpoint",
    "RetunePlan",
    "ChaosScenario",
    "ChaosReport",
    "SCENARIOS",
    "run_scenario",
    "tiny_chaos_spec",
]
