"""Per-job planning and admission control for the scheduler.

Each of a job's N parallel pipelines occupies its own disjoint chain of
K devices (inter-round coupling is only the α-pull through the update
queues, so chains are placeable independently — the "embarrassingly
parallel between rounds" structure of §3.2).  For one chain the planner:

* cuts the job's model into K stages with :func:`repro.core.plan_for_spec`
  against a sub-spec of the granted devices — one joint partition and
  placement search per distinct (family, grant speeds, grant memories),
  of which a uniform grant is the degenerate case (one DP,
  straight-chain placement);
* builds an *analytic* :class:`~repro.core.profiler.Profile` at the
  job's own (M, 1) setting — per-stage compute from the cost model
  against each granted device's effective flops, per-stage transfer
  against the real link parameters between the granted devices, and
  per-stage footprints from the schedule's weight-version and stash
  bounds (the same quantities the invariants memory model charges);
* evaluates it through the tuner's :class:`~repro.core.Predictor`
  (Equations 1-8) — ``batch_time`` is the Eq.-1 bound used as the
  chain's service time, and ``f_total`` is the Eq.-8 footprint that
  admission control checks against the granted devices' capacities with
  :func:`~repro.core.predictor.fits_memory`.

Admission therefore *cannot* grant a chain that violates a per-device
memory cap: :meth:`JobPlanner.plan_chain` returns the footprints next to
the caps and :class:`ChainPlan.fits` is the predicate the scheduler
enforces (and the fuzzer audits).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.predictor import Predictor, fits_memory
from repro.core.profiler import Profile
from repro.core.simcfg import calibration_for
from repro.core.tuner import plan_for_spec
from repro.graph.partitioner import Partition
from repro.schedules.base import AdvanceFPSchedule
from repro.schedules.executor import StageCosts
from repro.sim.cluster import ClusterSpec

__all__ = ["ChainPlan", "JobPlanner"]

#: AvgPipe's own schedule shape: 1F1B with one advanced forward, one
#: resident weight version (§4.2) — what each admitted chain runs.
_SCHEDULE = AdvanceFPSchedule(1)
_COMM_WEIGHT = 0.2  # same partitioning trade-off simcfg uses


@lru_cache(maxsize=None)
def _family_costs(family: str):
    """Layer costs per workload family (model build is the expensive
    part; the cost list is immutable in practice)."""
    cal = calibration_for(family)
    return tuple(cal.layer_costs())


@dataclass(frozen=True)
class ChainPlan:
    """One granted pipeline chain: devices, partition, service model."""

    family: str
    num_micro: int
    #: granted devices; ``devices[d]`` is local planner index d
    devices: tuple[int, ...]
    #: stage k runs on global device ``stage_devices[k]``
    stage_devices: tuple[int, ...]
    boundaries: tuple[int, ...]
    #: Eq.-1 per-batch service time of this chain
    batch_time: float
    #: Eq.-8 footprint of stage k (bytes)
    footprints: tuple[float, ...]
    #: capacity of stage k's hosting device (bytes)
    caps: tuple[int, ...]
    with_reference: bool

    @property
    def fits(self) -> bool:
        return fits_memory(self.footprints, self.caps)

    @property
    def num_stages(self) -> int:
        return len(self.stage_devices)


class JobPlanner:
    """Plans chains for jobs on one shared cluster spec."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self._cache: dict[tuple, ChainPlan] = {}
        #: (family, grant speeds, grant memories) -> (partition,
        #: placement).  The key is all the search reads of a grant, so
        #: plans that differ only in M, the reference copy or node
        #: adjacency share one search.
        self._cuts: dict[tuple, tuple[Partition, tuple[int, ...]]] = {}

    # ------------------------------------------------------------------ #

    def plan_chain(
        self,
        family: str,
        num_stages: int,
        num_micro: int,
        devices: tuple[int, ...],
        with_reference: bool,
    ) -> ChainPlan:
        """Plan one pipeline chain of ``family`` on ``devices``.

        The result depends only on the granted devices' speeds, memory
        capacities and node-adjacency pattern, so plans are memoized on
        that signature — but the returned plan always carries the actual
        device ids of this grant.
        """
        if len(devices) != num_stages:
            raise ValueError(
                f"grant of {len(devices)} devices for {num_stages} stages"
            )
        spec = self.spec
        key = (
            family,
            num_micro,
            with_reference,
            tuple(spec.speed_of(d) for d in devices),
            tuple(spec.memory_bytes_of(d) for d in devices),
            tuple(spec.node_of(d) for d in devices),
        )
        cached = self._cache.get(key)
        if cached is not None:
            if cached.devices == devices:
                return cached
            # same signature, different device ids: remap
            remap = dict(zip(cached.devices, devices))
            plan = dataclasses.replace(
                cached,
                devices=devices,
                stage_devices=tuple(remap[d] for d in cached.stage_devices),
            )
            return plan
        plan = self._plan_chain_uncached(
            family, num_stages, num_micro, devices, with_reference
        )
        self._cache[key] = plan
        return plan

    def best_case_fits(self, family: str, num_stages: int, num_micro: int) -> bool:
        """Whether one chain fits *anywhere* on an empty cluster.

        Admission control's static feasibility check: a job that fails
        this can never be admitted and is rejected at submit instead of
        blocking the queue forever.
        """
        if num_stages > self.spec.num_devices:
            return False
        devices = self.rank_devices(range(self.spec.num_devices))[:num_stages]
        plan = self.plan_chain(
            family, num_stages, num_micro, tuple(devices), with_reference=True
        )
        return plan.fits

    def rank_devices(self, candidates) -> list[int]:
        """Grant order: fastest first, then largest memory, then id."""
        spec = self.spec
        return sorted(
            candidates,
            key=lambda d: (-spec.speed_of(d), -spec.memory_bytes_of(d), d),
        )

    # ------------------------------------------------------------------ #

    def _cut(
        self, family: str, devices: tuple[int, ...]
    ) -> tuple[Partition, tuple[int, ...]]:
        """Partition + placement of ``family`` on a grant, memoized.

        The sub-spec is one device per node, so the search reads only
        the grant's speeds and memories (and the planner's shared link
        and flops constants), not which node each device sits on.
        """
        spec = self.spec
        speeds = tuple(spec.speed_of(d) for d in devices)
        mems = tuple(spec.memory_bytes_of(d) for d in devices)
        key = (family, speeds, mems)
        cut = self._cuts.get(key)
        if cut is not None:
            return cut
        cal = calibration_for(family)
        uniform = len(set(speeds)) == 1 and len(set(mems)) == 1
        sub = ClusterSpec(
            nodes=len(devices),
            gpus_per_node=1,
            peak_flops=spec.peak_flops * (speeds[0] if uniform else 1.0),
            memory_bytes=mems[0],
            intra_node_bandwidth=spec.intra_node_bandwidth,
            inter_node_bandwidth=spec.inter_node_bandwidth,
            intra_node_latency=spec.intra_node_latency,
            inter_node_latency=spec.inter_node_latency,
            device_speed=None if uniform else speeds,
            device_memory_bytes=None if uniform else mems,
        )
        cut = plan_for_spec(
            list(_family_costs(family)),
            sub,
            activation_byte_scale=cal.activation_byte_scale,
            param_byte_scale=cal.param_byte_scale,
            comm_weight=_COMM_WEIGHT,
            memory_caps=None if uniform else sub.memory_vector(),
        )
        self._cuts[key] = cut
        return cut

    def _plan_chain_uncached(
        self,
        family: str,
        num_stages: int,
        num_micro: int,
        devices: tuple[int, ...],
        with_reference: bool,
    ) -> ChainPlan:
        spec = self.spec
        cal = calibration_for(family)
        costs = list(_family_costs(family))
        if cal.batch_size % num_micro != 0:
            raise ValueError(
                f"{family}: batch {cal.batch_size} not divisible by M={num_micro}"
            )

        partition, placement = self._cut(family, devices)
        stage_devices = tuple(devices[placement[k]] for k in range(num_stages))

        # --- analytic profile at the job's own (M, 1) -------------------
        stage_costs = StageCosts.from_partition(
            costs,
            partition,
            mb_size=cal.batch_size / num_micro,
            activation_byte_scale=cal.activation_byte_scale,
            param_byte_scale=cal.param_byte_scale,
            stash_multiplier=cal.stash_multiplier,
        )
        K, M = num_stages, num_micro
        t_gpu, t_comm_total, f_mod, f_ref, f_dat = [], [], [], [], []
        for k in range(K):
            dev = stage_devices[k]
            # fwd + 2x bwd flops per micro-batch on the hosting device
            t_comp = 3.0 * stage_costs.fwd_flops[k] / spec.peak_flops_of(dev)
            t_gpu.append(M * t_comp)
            if k + 1 < K:
                bandwidth, latency = spec.link_params(dev, stage_devices[k + 1])
                t_comm = stage_costs.act_out_bytes[k] / bandwidth + latency
            else:
                t_comm = 0.0
            t_comm_total.append(M * t_comm)
            params = stage_costs.param_bytes[k]
            versions = _SCHEDULE.weight_versions(k, K)
            ref = params if with_reference else 0
            f_mod.append(params * (versions + cal.optimizer_state_factor) + ref)
            f_ref.append(ref)
            f_dat.append(_SCHEDULE.stash_bound(k, K, M) * stage_costs.stash_bytes[k])
        profile = Profile(
            m=M,
            n=1,
            batch_size=cal.batch_size,
            num_stages=K,
            t_gpu=t_gpu,
            t_comm_total=t_comm_total,
            # single-knot step function: Eq. 2's overflow integral is 0 at
            # the profile's own setting, which is the only one we evaluate
            phi_times=[np.array([0.0]) for _ in range(K)],
            phi_values=[np.array([1.0]) for _ in range(K)],
            f_mod=f_mod,
            f_ref=f_ref,
            f_dat=f_dat,
            batch_time=0.0,  # filled from the prediction below
            profiling_cost=0.0,
            curve=None,
        )
        prediction = Predictor(profile).predict(M, 1)
        return ChainPlan(
            family=family,
            num_micro=M,
            devices=devices,
            stage_devices=stage_devices,
            boundaries=partition.boundaries,
            batch_time=prediction.batch_time,
            footprints=prediction.f_total,
            caps=tuple(spec.memory_bytes_of(d) for d in stage_devices),
            with_reference=with_reference,
        )
