"""Baseline system definitions and simulation helpers.

A :class:`BaselineSystem` bundles the schedule the system runs, its
weight-version memory behaviour (already encoded in the schedule), and
which real-numerics trainer carries its update semantics.  The helpers
here run one baseline on a workload's calibrated cluster, picking each
baseline's micro-batch count the way its authors would (the fastest
feasible power-of-two under the memory budget), so comparisons are not
rigged by a bad hand-picked M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.simcfg import SimCalibration
from repro.core.trainer import (
    PipeDream2BWTrainer,
    PipeDreamTrainer,
    SyncTrainer,
    _TrainerBase,
)
from repro.core.tuner import default_m_candidates
from repro.models.registry import WorkloadSpec
from repro.schedules.base import (
    AFABSchedule,
    OneFOneBSchedule,
    PipeDreamSchedule,
    Schedule,
)
from repro.schedules.data_parallel import DataParallelSimRunner
from repro.schedules.executor import SimIterationResult
from repro.sim.cluster import Cluster
from repro.sim.events import Simulator

__all__ = [
    "BaselineSystem",
    "BASELINE_SYSTEMS",
    "baseline_by_name",
    "simulate_baseline",
    "choose_baseline_micro",
]


@dataclass(frozen=True)
class BaselineSystem:
    """One comparison system: its schedule (timing) and trainer (semantics)."""
    name: str
    display: str
    schedule: Callable[[], Schedule] | None  # None => data parallel
    trainer: Callable[[WorkloadSpec, int, int], _TrainerBase]
    is_pipeline: bool = True
    #: "num_devices" pins M to K (Dapple's planner default, per the paper's
    #: "with the micro-batch number of six"); None sweeps for the best M.
    fixed_micro: str | None = None


def _sync(spec: WorkloadSpec, seed: int, max_epochs: int) -> SyncTrainer:
    return SyncTrainer(spec, seed=seed, max_epochs=max_epochs)


def _pipedream(spec: WorkloadSpec, seed: int, max_epochs: int) -> PipeDreamTrainer:
    return PipeDreamTrainer(spec, seed=seed, max_epochs=max_epochs)


def _2bw(spec: WorkloadSpec, seed: int, max_epochs: int) -> PipeDream2BWTrainer:
    return PipeDream2BWTrainer(spec, seed=seed, max_epochs=max_epochs)


BASELINE_SYSTEMS: dict[str, BaselineSystem] = {
    "pytorch": BaselineSystem(
        name="pytorch", display="PyTorch (DP)", schedule=None, trainer=_sync, is_pipeline=False
    ),
    "gpipe": BaselineSystem(
        name="gpipe", display="GPipe", schedule=AFABSchedule, trainer=_sync
    ),
    "pipedream": BaselineSystem(
        name="pipedream", display="PipeDream", schedule=PipeDreamSchedule, trainer=_pipedream
    ),
    "pipedream-2bw": BaselineSystem(
        name="pipedream-2bw",
        display="PipeDream-2BW",
        schedule=lambda: OneFOneBSchedule(versions=2),
        trainer=_2bw,
    ),
    "dapple": BaselineSystem(
        name="dapple",
        display="Dapple",
        schedule=lambda: OneFOneBSchedule(versions=1),
        trainer=_sync,
        fixed_micro="num_devices",
    ),
}


def baseline_by_name(name: str) -> BaselineSystem:
    """Look up a baseline definition by its short name."""
    try:
        return BASELINE_SYSTEMS[name]
    except KeyError:
        raise KeyError(f"unknown baseline {name!r}; available: {sorted(BASELINE_SYSTEMS)}") from None


def choose_baseline_micro(
    system: BaselineSystem, calibration: SimCalibration, iterations: int = 2
) -> int:
    """The fastest feasible micro-batch count for a pipeline baseline."""
    if system.schedule is None:
        raise ValueError("data parallelism has no micro-batch count")
    if system.fixed_micro == "num_devices":
        m = calibration.num_devices
        while calibration.batch_size % m != 0:  # Dapple pins M ~= K
            m -= 1
        return max(m, 1)
    profiler = calibration.profiler(system.schedule(), with_reference_model=False)
    best_m, best_t = None, float("inf")
    for m in default_m_candidates(calibration.batch_size):
        result = profiler.run_setting(m, 1, iterations=iterations)
        if result.oom is not None:
            continue
        if max(result.peak_memory) > calibration.memory_capacity_bytes:
            continue
        if result.batch_time < best_t:
            best_m, best_t = m, result.batch_time
    if best_m is None:
        raise RuntimeError(f"{system.name}: no feasible micro-batch count (OOM everywhere)")
    return best_m


def simulate_baseline(
    system: BaselineSystem,
    calibration: SimCalibration,
    num_micro: int | None = None,
    iterations: int = 3,
    record_utilization: bool = False,
    registry=None,
) -> SimIterationResult:
    """Simulate a baseline's per-batch performance on the workload.

    ``registry`` (repro.obs) mirrors pipeline-run telemetry — spans,
    Eq.-1 component seconds, memory high-water marks — for every
    pipelined baseline; the data-parallel runner has no span stream and
    ignores it.
    """
    if system.schedule is None:
        sim = Simulator()
        cluster = Cluster(sim, calibration.cluster_spec())
        runner = DataParallelSimRunner(
            cluster,
            calibration.layer_costs(),
            batch_size=calibration.batch_size,
            activation_byte_scale=calibration.activation_byte_scale * calibration.stash_multiplier,
            param_byte_scale=calibration.param_byte_scale,
            optimizer_state_factor=calibration.optimizer_state_factor,
            allreduce_inefficiency=calibration.allreduce_inefficiency,
        )
        return runner.run(iterations=iterations)
    m = num_micro if num_micro is not None else choose_baseline_micro(system, calibration)
    profiler = calibration.profiler(system.schedule(), with_reference_model=False)
    return profiler.run_setting(
        m, 1, iterations=iterations, record_utilization=record_utilization,
        registry=registry,
    )
