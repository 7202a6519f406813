"""Heterogeneous-cluster partitioning experiment (fig11/fig13 analogue).

For each canned heterogeneous variant of the GNMT testbed
(:mod:`repro.sim.hetero`), simulates one iteration-timed run under three
planning strategies:

* ``uniform-partition`` — the seed planner: :func:`partition_model`
  computed as if the cluster were uniform, straight-chain placement.
  This is what a heterogeneity-blind tuner would deploy.
* ``balanced`` — the BaPipe-style :func:`partition_model` DP against
  the variant's per-device speeds and per-link bandwidths, still
  straight-chain (stage k on device k).
* ``balanced+placement`` — the joint search
  (:func:`search_partition_placement`): every stage->device permutation
  re-runs the DP and the cheapest plan wins (Luo et al.,
  arXiv:2204.10562).

The headline quantity is simulated batch time per strategy and the
speedup over ``uniform-partition`` — the analogue of Figures 11/13's
"who wins and by how much", with heterogeneity instead of the baseline
systems as the independent variable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.simcfg import SimCalibration, calibration_for
from repro.graph.partitioner import Partition, partition_model
from repro.schedules import AdvanceFPSchedule
from repro.sim.hetero import hetero_variant_names

__all__ = ["run_hetero", "HeteroRow", "STRATEGY_ORDER", "plan_strategies"]

STRATEGY_ORDER = ("uniform-partition", "balanced", "balanced+placement")


@dataclass
class HeteroRow:
    """One (variant, strategy) cell of the hetero experiment."""
    workload: str
    variant: str
    strategy: str
    boundaries: tuple[int, ...]
    placement: tuple[int, ...]
    batch_time: float
    speedup_vs_uniform: float  # >1 = this strategy is faster
    oom: bool = False


def plan_strategies(
    cal: SimCalibration, variant: str, costs=None
) -> dict[str, tuple[Partition, tuple[int, ...] | None]]:
    """(partition, placement) per strategy for one canned variant."""
    costs = costs or cal.layer_costs()
    cspec = cal.cluster_spec(variant)
    k = cal.num_devices
    matrix = [
        [bw / cal.activation_byte_scale for bw in row]
        for row in cspec.bandwidth_matrix()
    ]
    # identity-placement slot bandwidths: the link into stage k is k-1 -> k
    chain_bw = [float("inf")] + [matrix[i - 1][i] for i in range(1, k)]
    balanced = partition_model(
        costs,
        k,
        device_speeds=cspec.speed_vector(),
        bandwidth_bytes_per_sec=chain_bw,
        flops_per_sec=cspec.peak_flops,
        comm_weight=0.2,
    )
    joint_part, joint_perm = cal.hetero_plan(variant, costs)
    return {
        "uniform-partition": (cal.partition(costs), None),
        "balanced": (balanced, None),
        "balanced+placement": (joint_part, joint_perm),
    }


def _simulate(
    cal: SimCalibration,
    variant: str,
    partition: Partition,
    placement: tuple[int, ...] | None,
    costs,
    num_micro: int,
    iterations: int,
) -> float:
    profiler = cal.profiler(
        AdvanceFPSchedule(2),
        variant=variant,
        costs=costs,
        partition=partition,
        placement=placement,
    )
    result = profiler.run_setting(num_micro, 1, iterations=iterations)
    if result.oom is not None:
        return float("inf")
    return result.batch_time


@functools.lru_cache(maxsize=None)
def run_hetero(
    workloads: tuple[str, ...] = ("gnmt",),
    variants: tuple[str, ...] | None = None,
    num_micro: int = 8,
    iterations: int = 2,
) -> dict:
    """Regenerate the heterogeneity rows (cached).

    GNMT is the default workload: its 16-layer chain over 6 devices has
    enough partition freedom for balanced cuts to matter (AWD's 4-layer
    chain over 4 devices is forced to one layer per stage, leaving only
    placement as a lever).
    """
    variants = variants or hetero_variant_names()
    rows: list[HeteroRow] = []
    speedups: dict[tuple[str, str, str], float] = {}
    for wl in workloads:
        cal = calibration_for(wl)
        costs = cal.layer_costs()
        for variant in variants:
            plans = plan_strategies(cal, variant, costs)
            times: dict[str, float] = {}
            for strategy in STRATEGY_ORDER:
                part, perm = plans[strategy]
                times[strategy] = _simulate(
                    cal, variant, part, perm, costs, num_micro, iterations
                )
            t_uniform = times["uniform-partition"]
            for strategy in STRATEGY_ORDER:
                part, perm = plans[strategy]
                t = times[strategy]
                speedup = t_uniform / t if t > 0 else float("inf")
                rows.append(
                    HeteroRow(
                        workload=wl,
                        variant=variant,
                        strategy=strategy,
                        boundaries=part.boundaries,
                        placement=perm
                        if perm is not None
                        else tuple(range(cal.num_devices)),
                        batch_time=t,
                        speedup_vs_uniform=speedup,
                        oom=t == float("inf"),
                    )
                )
                speedups[(wl, variant, strategy)] = speedup
    return {"rows": rows, "speedup": speedups}
