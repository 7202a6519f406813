"""Profiling phase of the tuning method (§5.2.1).

Runs the runtime for a small number of batches at one setting of the
parallelism degrees — a rather large M and a small N, so that no GPU is
saturated (``phi < 100%``; Equation 2 cannot be inverted from a clipped
curve) — and collects, per device k:

* ``t_gpu[k]`` — computation time per batch,
* ``t_comm_total[k]`` — total communication time the stage *sent* per
  batch (the paper's T-bb^k),
* ``phi[k]`` — the utilization curve phi^k(t) as a step function,
* ``f_mod[k]`` / ``f_dat[k]`` — model and data memory footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.cost_model import LayerCost
from repro.graph.partitioner import Partition
from repro.schedules.base import Schedule
from repro.schedules.executor import PipelineSimRunner, SimIterationResult, StageCosts
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.device import UtilizationCurve
from repro.sim.events import Simulator

__all__ = ["Profile", "Profiler"]


@dataclass
class Profile:
    """Everything the predictor needs, measured at setting (m, n)."""

    m: int  # profiled micro-batch number
    n: int  # profiled pipeline number
    batch_size: int
    num_stages: int
    t_gpu: list[float]  # per device, per batch
    t_comm_total: list[float]  # per device, per batch
    phi_times: list[np.ndarray]  # step-function knots per device
    phi_values: list[np.ndarray]
    f_mod: list[int]  # model(+versions+opt) bytes per device
    f_ref: list[int]  # reference-copy bytes (do not scale with N)
    f_dat: list[int]  # peak activation bytes per device
    batch_time: float
    profiling_cost: float  # simulated seconds spent profiling
    #: the device saturation curve, if known.  The paper's Equation 2
    #: assumes arithmetic intensity scales linearly with micro-batch size
    #: ("as a simplification of real-world environments"); when the curve
    #: is available the predictor scales phi by the curve ratio instead,
    #: which ranks settings correctly on saturating hardware.
    curve: UtilizationCurve | None = None

    def __post_init__(self) -> None:
        # Per device, the steps of positive length and the value phi
        # holds over each (a knot repeated at one time is a zero step).
        self._phi_steps = []
        for times, values in zip(self.phi_times, self.phi_values):
            dt = np.diff(np.asarray(times, dtype=float))
            held = dt > 0
            self._phi_steps.append(
                (dt[held], np.asarray(values, dtype=float)[:-1][held])
            )

    def phi_integral_over(self, k: int, scale: float) -> float:
        """``integral of max(scale * phi_k(t) - 1, 0) dt`` per batch.

        ``add.accumulate`` adds the steps left to right from the first,
        so the float is that of the sequential sum in time order
        (``np.sum`` would sum pairwise).
        """
        dt, values = self._phi_steps[k]
        if not len(dt):
            return 0.0
        overflow = dt * np.maximum(scale * values - 1.0, 0.0)
        return float(np.add.accumulate(overflow)[-1])


class Profiler:
    """Drives a profiling run on a fresh simulated cluster."""

    def __init__(
        self,
        layer_costs: list[LayerCost],
        partition: Partition,
        schedule: Schedule,
        cluster_spec: ClusterSpec,
        batch_size: int,
        activation_byte_scale: float = 1.0,
        param_byte_scale: float = 1.0,
        stash_multiplier: float = 6.0,
        optimizer_state_factor: float = 2.0,
        with_reference_model: bool = True,
        activation_recompute: bool = False,
        placement: Sequence[int] | None = None,
    ) -> None:
        self.layer_costs = layer_costs
        self.partition = partition
        self.schedule = schedule
        self.cluster_spec = cluster_spec
        self.batch_size = batch_size
        self.activation_byte_scale = activation_byte_scale
        self.param_byte_scale = param_byte_scale
        self.stash_multiplier = stash_multiplier
        self.optimizer_state_factor = optimizer_state_factor
        self.with_reference_model = with_reference_model
        self.activation_recompute = activation_recompute
        #: stage -> device permutation (Luo et al. placement); None keeps
        #: the straight chain (stage k on device k) and the exact legacy
        #: code path, so uniform runs stay bit-identical.
        if placement is not None:
            placement = tuple(placement)
            if len(placement) != partition.num_stages:
                raise ValueError(
                    f"placement has {len(placement)} entries for "
                    f"{partition.num_stages} stages"
                )
            if sorted(placement) != list(range(partition.num_stages)):
                raise ValueError(f"placement must be a permutation: {placement}")
        self.placement = placement

    def _device_map(self, num_pipelines: int) -> list[list[int]] | None:
        if self.placement is None:
            return None
        return [list(self.placement) for _ in range(num_pipelines)]

    def _stage_device(self, stage: int) -> int:
        return stage if self.placement is None else self.placement[stage]

    def _runner(
        self, m: int, n: int, record_utilization: bool = False, registry=None
    ) -> PipelineSimRunner:
        """A runner at (m, n) on a fresh simulated cluster."""
        if self.batch_size % m != 0:
            raise ValueError(f"batch {self.batch_size} not divisible by M={m}")
        cluster = Cluster(Simulator(), self.cluster_spec)
        stage_costs = StageCosts.from_partition(
            self.layer_costs,
            self.partition,
            mb_size=self.batch_size / m,
            activation_byte_scale=self.activation_byte_scale,
            param_byte_scale=self.param_byte_scale,
            stash_multiplier=self.stash_multiplier,
        )
        return PipelineSimRunner(
            cluster,
            self.schedule,
            stage_costs,
            num_micro=m,
            mb_size=self.batch_size / m,
            num_pipelines=n,
            with_reference_model=self.with_reference_model,
            optimizer_state_factor=self.optimizer_state_factor,
            record_utilization=record_utilization,
            device_map=self._device_map(n),
            activation_recompute=self.activation_recompute,
            registry=registry,
        )

    def run_setting(
        self,
        m: int,
        n: int,
        iterations: int = 3,
        record_utilization: bool = False,
        render_timeline: bool = False,
        registry=None,
    ) -> SimIterationResult:
        """Simulate ``iterations`` batches at parallelism degrees (m, n).

        ``registry`` (a repro.obs MetricRegistry) is handed to the
        runner, which mirrors spans and end-of-run footprints into it.
        """
        runner = self._runner(m, n, record_utilization, registry)
        return runner.run(iterations=iterations, render_timeline=render_timeline)

    def profile(self, m: int | None = None, n: int = 1, iterations: int = 4) -> Profile:
        """The §5.2.1 profiling run: large M, small N, a few batches."""
        if m is None:
            # largest power-of-two micro-batch count that keeps >= 2 samples
            m = 1
            while self.batch_size % (m * 2) == 0 and self.batch_size // (m * 2) >= 2:
                m *= 2
        runner = self._runner(m, n)
        result = runner.run(iterations=iterations)
        if result.oom is not None:
            raise result.oom
        K = result.num_stages
        # The Profile's lists are *stage-ordered* (the predictor's Eq. 5-7
        # walk neighbouring stages); under a placement permutation stage
        # k's per-device quantities live on device placement[k].
        devices = [self._stage_device(k) for k in range(K)]
        phi_times, phi_values = [], []
        for dev in devices:
            steps = runner.cluster.devices[dev].compute.utilization_steps
            phi_times.append(np.array([t for t, _ in steps]) / iterations)
            phi_values.append(np.array([u for _, u in steps]))
        return Profile(
            m=m,
            n=n,
            batch_size=self.batch_size,
            curve=self.cluster_spec.curve,
            num_stages=K,
            t_gpu=[result.decomposition[dev]["gpu"] for dev in devices],
            t_comm_total=list(result.comm_sent_time),
            phi_times=phi_times,
            phi_values=phi_values,
            f_mod=[result.weight_memory[dev] for dev in devices],
            f_ref=[result.reference_memory[dev] for dev in devices],
            f_dat=[result.data_memory_peak[dev] for dev in devices],
            batch_time=result.batch_time,
            profiling_cost=result.total_time,
        )
