"""Recovery policies: what to do once a failure is detected.

The paper's elastic-averaging design makes pipelines *individually
expendable*: they couple only through α-pulls toward the shared
reference, so the natural recovery ladder is

* :class:`EvictPipeline` — drop the dead pipeline and renormalize an
  automatic α (via :meth:`ElasticAveragingFramework.resize`); training
  continues at N−1 with the reference trajectory intact.  Cheapest, and
  the policy of record for single-pipeline crashes.
* :class:`RejoinPipeline` — a recovered (or replacement) pipeline
  re-enters seeded from the reference model, and α renormalizes back up.
  Because the newcomer starts *at* the reference, its first diluted
  deltas are ordinary descent steps — no transient shock to the
  consensus trajectory (property-tested).
* :class:`RestartFromCheckpoint` — for correlated failures (a device
  crash takes a stage of *every* pipeline): reload the last full
  checkpoint, including the averaging clock and per-module RNG streams,
  resizing to the checkpoint's N when it differs from the live one.
* :class:`RetunePlan` — stragglers don't kill anyone; they change the
  performance model.  Re-invoke the profiling tuner against a cluster
  spec degraded by the observed slowdown to re-pick (M, N).

:class:`RecoveryManager` routes :class:`FailureReport`\\ s to the first
policy that claims them and keeps a timeline of
:class:`RecoveryRecord`\\ s for the chaos report.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.tuner import ProfilingTuner, TuningOutcome
from repro.resilience.detector import FailureReport

__all__ = [
    "RecoveryRecord",
    "RecoveryPolicy",
    "EvictPipeline",
    "RejoinPipeline",
    "RestartFromCheckpoint",
    "RetunePlan",
    "RecoveryManager",
]


@dataclass
class RecoveryRecord:
    """One applied recovery action, for the chaos timeline."""

    policy: str
    report: FailureReport
    recovered_at: float
    details: dict = field(default_factory=dict)


class RecoveryPolicy:
    """Base class: claims report kinds and mutates the trainer."""

    name = "base"
    handles_kinds: tuple[str, ...] = ()

    def handles(self, report: FailureReport) -> bool:
        return report.kind in self.handles_kinds

    def apply(self, trainer, report: FailureReport) -> dict:
        raise NotImplementedError


class EvictPipeline(RecoveryPolicy):
    """Drop the crashed pipeline; renormalize α; keep going."""

    name = "evict"
    handles_kinds = ("pipeline_crash",)

    def apply(self, trainer, report: FailureReport) -> dict:
        trainer.evict_pipeline(report.target)
        return {
            "evicted": report.target,
            "num_pipelines": trainer.num_pipelines,
            "alpha": trainer.framework.alpha,
        }


class RejoinPipeline(RecoveryPolicy):
    """Re-admit a pipeline seeded from the reference model.

    Not report-driven: re-admission happens when capacity returns, so
    call :meth:`apply` directly (``report=None``) or route a synthetic
    ``pipeline_rejoin`` report through a manager.
    """

    name = "rejoin"
    handles_kinds = ("pipeline_rejoin",)

    def __init__(self, seed: int | None = None) -> None:
        self.seed = seed

    def apply(self, trainer, report: FailureReport | None = None) -> dict:
        index = trainer.rejoin_pipeline(seed=self.seed)
        return {
            "joined_as": index,
            "num_pipelines": trainer.num_pipelines,
            "alpha": trainer.framework.alpha,
        }


class RestartFromCheckpoint(RecoveryPolicy):
    """Reload full training state after a correlated (device) failure."""

    name = "restart"
    handles_kinds = ("device_crash",)

    def __init__(self, path) -> None:
        self.path = path

    def apply(self, trainer, report: FailureReport) -> dict:
        from repro.core.checkpoint import load_trainer

        load_trainer(trainer, self.path, allow_resize=True)
        return {
            "checkpoint": Path(self.path).name,
            "num_pipelines": trainer.num_pipelines,
            "alpha": trainer.framework.alpha,
        }


class RetunePlan(RecoveryPolicy):
    """Re-plan for a cluster degraded by an observed straggler.

    Holds everything needed to rebuild the profiling tuner; on a
    straggler report it marks the *straggling device* as slow in a
    heterogeneous :class:`~repro.sim.cluster.ClusterSpec`
    (``device_speed[target] = 1/severity``), re-runs the balanced
    partition + placement search (:func:`~repro.core.tuner.plan_for_spec`)
    so work shifts off the slow device, and re-picks (M, N) with the
    paper's tuning procedure against the re-partitioned pipeline.  The
    outcome is returned, not applied — re-partitioning a live run is the
    orchestrator's call.

    When the report names no valid device (target out of range), the
    whole cluster degrades uniformly — the pre-heterogeneity behavior.
    """

    name = "retune"
    handles_kinds = ("straggler",)

    def __init__(
        self,
        profiler,
        memory_limit_bytes: float,
        m_candidates: list[int] | None = None,
        n_candidates: list[int] | None = None,
    ) -> None:
        self.profiler = profiler
        self.memory_limit_bytes = memory_limit_bytes
        self.m_candidates = m_candidates
        self.n_candidates = n_candidates
        self.last_outcome: TuningOutcome | None = None

    def apply(self, trainer, report: FailureReport) -> dict:
        from repro.core.tuner import plan_for_spec

        spec = self.profiler.cluster_spec
        slowdown = max(report.severity, 1.0)
        if 0 <= report.target < spec.num_devices:
            speeds = list(spec.speed_vector())
            speeds[report.target] = speeds[report.target] / slowdown
            degraded_spec = dataclasses.replace(spec, device_speed=tuple(speeds))
        else:
            # no device to blame: degrade everything (legacy behavior)
            degraded_spec = dataclasses.replace(
                spec, peak_flops=spec.peak_flops / slowdown
            )
        partition, placement = plan_for_spec(
            self.profiler.layer_costs,
            degraded_spec,
            num_stages=self.profiler.partition.num_stages,
            activation_byte_scale=self.profiler.activation_byte_scale,
            param_byte_scale=self.profiler.param_byte_scale,
        )
        repartitioned = (
            partition.boundaries != self.profiler.partition.boundaries
            or placement != tuple(range(partition.num_stages))
        )
        degraded_profiler = copy.copy(self.profiler)
        degraded_profiler.cluster_spec = degraded_spec
        degraded_profiler.partition = partition
        degraded_profiler.placement = (
            placement if placement != tuple(range(partition.num_stages)) else None
        )
        tuner = ProfilingTuner(degraded_profiler, self.memory_limit_bytes)
        outcome = tuner.tune(self.m_candidates, self.n_candidates)
        self.last_outcome = outcome
        return {
            "slowdown": report.severity,
            "m": outcome.m,
            "n": outcome.n,
            "measured_batch_time": outcome.measured_batch_time,
            "boundaries": partition.boundaries,
            "placement": placement,
            "repartitioned": repartitioned,
        }


class RecoveryManager:
    """Routes failure reports to policies and keeps the timeline."""

    def __init__(self, policies: list[RecoveryPolicy]) -> None:
        self.policies = policies
        self.records: list[RecoveryRecord] = []
        self.unhandled: list[FailureReport] = []

    def handle(self, report: FailureReport, trainer, now: float) -> RecoveryRecord | None:
        for policy in self.policies:
            if policy.handles(report):
                details = policy.apply(trainer, report)
                record = RecoveryRecord(policy.name, report, now, details)
                self.records.append(record)
                return record
        self.unhandled.append(report)
        return None
