"""Parallelism-degree tuning strategies (§5, Figures 18-19).

* :class:`ProfilingTuner` — the paper's method: one short profiling run,
  Equations 2-8 over the candidate grid, pick the feasible minimum.
* :class:`TraversalTuner` — ground truth: actually run every setting for
  a few batches and pick the fastest (the "takes hours" baseline).
* :class:`GuidelineTuner` — the two naive guidelines: ``max-num``
  (micro-batch size one, then as many pipelines as memory allows) and
  ``max-size`` (one micro-batch per batch, then pipelines).

All tuners report their *tuning cost* in simulated seconds — the quantity
Figure 18 compares — and the chosen setting's measured batch time — the
quantity Figure 19 compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.predictor import Predictor, fits_memory
from repro.core.profiler import Profile, Profiler
from repro.graph.cost_model import LayerCost
from repro.graph.partitioner import Partition, search_partition_placement
from repro.graph.partitioner import partition_model  # noqa: F401  (patched by benchmarks/e2e/spans.py)
from repro.sim.cluster import ClusterSpec

if TYPE_CHECKING:
    from repro.schedules.executor import SimIterationResult

__all__ = [
    "TuningOutcome",
    "ProfilingTuner",
    "TraversalTuner",
    "GuidelineTuner",
    "plan_for_spec",
]


@dataclass
class TuningOutcome:
    """A tuner's chosen (M, N) with its measurement cost and quality."""
    method: str
    m: int
    n: int
    tuning_cost: float  # simulated seconds spent measuring
    measured_batch_time: float  # at the chosen setting
    details: list = field(default_factory=list)
    #: the stage cut the tuner ran against (heterogeneous planning
    #: attaches the balanced partition; None = caller's default)
    partition: tuple[int, ...] | None = None
    #: stage -> device permutation; None = straight chain
    placement: tuple[int, ...] | None = None
    #: the run behind ``measured_batch_time`` (ProfilingTuner only), kept
    #: so a caller that wants it does not simulate the same setting again
    measured_run: SimIterationResult | None = field(
        default=None, init=False, repr=False, compare=False
    )


def plan_for_spec(
    layer_costs: Sequence[LayerCost],
    cluster_spec: ClusterSpec,
    *,
    num_stages: int | None = None,
    activation_byte_scale: float = 1.0,
    param_byte_scale: float = 1.0,
    comm_weight: float = 0.5,
    memory_caps: Sequence[float] | None = None,
) -> tuple[Partition, tuple[int, ...]]:
    """Partition + placement for a cluster spec, uniform or not.

    Runs the joint partition/placement search against the spec's
    per-device speeds, link matrix and (optional) per-device memory
    caps, charging each layer 3x its parameter bytes.  A uniform spec is
    the degenerate case: its link matrix prices every cut at the
    inter-node bandwidth (the seed planner's pricing), all devices are
    interchangeable, and the search runs one DP with the straight-chain
    placement.  ``num_stages`` defaults to, and must equal, the spec's
    device count.
    """
    k = cluster_spec.num_devices
    if num_stages is not None and num_stages != k:
        raise ValueError(
            f"num_stages={num_stages} does not match the spec's {k} devices"
        )
    if cluster_spec.is_uniform:
        links = [[cluster_spec.inter_node_bandwidth] * k for _ in range(k)]
    else:
        links = cluster_spec.bandwidth_matrix()
    part, perm, _ = search_partition_placement(
        layer_costs,
        k,
        device_speeds=cluster_spec.speed_vector(),
        bandwidth_matrix=[[bw / activation_byte_scale for bw in row] for row in links],
        memory_caps=memory_caps,
        flops_per_sec=cluster_spec.peak_flops,
        comm_weight=comm_weight,
        layer_memory_bytes=[3.0 * c.param_bytes * param_byte_scale for c in layer_costs],
    )
    return part, perm


def _stage_memory_limits(
    profiler: Profiler, memory_limit: float | Sequence[float]
) -> float | Sequence[float]:
    """Reorder a per-*device* budget into per-*stage* order.

    The Predictor's footprints are stage-indexed; under a placement
    permutation stage k lives on device placement[k].  Scalars pass
    through untouched (the uniform case).
    """
    if isinstance(memory_limit, (int, float)):
        return memory_limit
    placement = profiler.placement or range(profiler.partition.num_stages)
    return [memory_limit[d] for d in placement]


def default_m_candidates(batch_size: int) -> list[int]:
    """Divisor-of-batch powers of two (micro-batch counts)."""
    out = []
    m = 1
    while m <= batch_size:
        if batch_size % m == 0:
            out.append(m)
        m *= 2
    return out


def _measure(profiler: Profiler, m: int, n: int, iterations: int = 3) -> tuple[float, float]:
    """(batch time, simulated cost) of actually running a setting."""
    result = profiler.run_setting(m, n, iterations=iterations)
    if result.oom is not None:
        return float("inf"), 0.0
    return result.batch_time, result.total_time


class ProfilingTuner:
    """The paper's method: one profile + Equations 2-8 over the grid.

    ``memory_limit_bytes`` may be a per-*device* sequence on a
    heterogeneous cluster; it is reordered into stage order through the
    profiler's placement before the feasibility check.
    """
    def __init__(
        self,
        profiler: Profiler,
        memory_limit_bytes: float | Sequence[float],
    ) -> None:
        self.profiler = profiler
        self.memory_limit = memory_limit_bytes

    def tune(
        self,
        m_candidates: list[int] | None = None,
        n_candidates: list[int] | None = None,
        profile_iterations: int = 4,
    ) -> TuningOutcome:
        batch = self.profiler.batch_size
        m_candidates = m_candidates or default_m_candidates(batch)
        n_candidates = n_candidates or [1, 2, 3, 4]
        profile: Profile = self.profiler.profile(iterations=profile_iterations)
        limits = _stage_memory_limits(self.profiler, self.memory_limit)
        winner, predictions = Predictor(profile).best_setting(
            m_candidates, n_candidates, limits
        )
        measured_run = self.profiler.run_setting(winner.m, winner.n, iterations=3)
        measured = float("inf") if measured_run.oom is not None else measured_run.batch_time
        outcome = TuningOutcome(
            method="profiling",
            m=winner.m,
            n=winner.n,
            tuning_cost=profile.profiling_cost,
            measured_batch_time=measured,
            details=predictions,
            partition=self.profiler.partition.boundaries,
            placement=self.profiler.placement,
        )
        outcome.measured_run = measured_run
        return outcome


class TraversalTuner:
    """Ground truth: simulate every setting and keep the fastest feasible."""
    def __init__(
        self,
        profiler: Profiler,
        memory_limit_bytes: float | Sequence[float],
        iterations_per_setting: int = 3,
    ) -> None:
        self.profiler = profiler
        self.memory_limit = memory_limit_bytes
        self.iterations_per_setting = iterations_per_setting

    def tune(
        self,
        m_candidates: list[int] | None = None,
        n_candidates: list[int] | None = None,
    ) -> TuningOutcome:
        batch = self.profiler.batch_size
        m_candidates = m_candidates or default_m_candidates(batch)
        n_candidates = n_candidates or [1, 2, 3, 4]
        best: tuple[float, int, int, float] | None = None
        cost = 0.0
        rows = []
        for m in m_candidates:
            for n in n_candidates:
                result = self.profiler.run_setting(m, n, iterations=self.iterations_per_setting)
                if result.oom is not None:
                    rows.append((m, n, float("inf")))
                    continue
                cost += result.total_time
                # Compare throughput per *batch*: an iteration advances n
                # batches concurrently.
                per_batch = result.batch_time / n
                rows.append((m, n, per_batch))
                if not fits_memory(result.peak_memory, self.memory_limit):
                    continue
                if best is None or per_batch < best[0]:
                    best = (per_batch, m, n, result.batch_time)
        if best is None:
            raise RuntimeError("traversal found no feasible setting")
        return TuningOutcome(
            method="traversal",
            m=best[1],
            n=best[2],
            tuning_cost=cost,
            measured_batch_time=best[3],
            details=rows,
        )


class GuidelineTuner:
    """The §5.1 naive guidelines."""

    def __init__(
        self, profiler: Profiler, memory_limit_bytes: float | Sequence[float]
    ) -> None:
        self.profiler = profiler
        self.memory_limit = memory_limit_bytes

    def _max_pipelines(self, m: int, n_candidates: list[int]) -> int:
        """Largest feasible N at micro-batch count ``m`` (by memory)."""
        best = 1
        for n in sorted(n_candidates):
            result = self.profiler.run_setting(m, n, iterations=1)
            if result.oom is not None:
                break
            if fits_memory(result.peak_memory, self.memory_limit):
                best = n
            else:
                break
        return best

    def tune(self, guideline: str, n_candidates: list[int] | None = None) -> TuningOutcome:
        n_candidates = n_candidates or [1, 2, 3, 4]
        batch = self.profiler.batch_size
        if guideline == "max-num":
            m = batch  # micro-batch size one
        elif guideline == "max-size":
            m = 1  # the whole batch as a single micro-batch
        else:
            raise ValueError(f"unknown guideline {guideline!r}")
        n = self._max_pipelines(m, n_candidates)
        measured, cost = _measure(self.profiler, m, n)
        return TuningOutcome(
            method=guideline, m=m, n=n, tuning_cost=cost, measured_batch_time=measured
        )
