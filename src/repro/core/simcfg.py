"""Per-workload simulator calibrations.

The CPU-sized models are ~20x narrower than the paper's; flops shrink
quadratically with width but byte quantities only linearly, so the raw
cost model would make communication and memory look artificially cheap.
Each workload therefore carries two re-inflation factors chosen so the
simulated regime matches the paper's testbed ratios:

* ``activation_byte_scale`` — makes one micro-batch's inter-node
  activation transfer cost the same order as its compute (the 1 Gbps
  regime where 1F1B's exposed communication matters, Figures 2/7/17);
* ``param_byte_scale`` — makes (a) a DDP all-reduce cost several batch
  times (Figure 11's 4.7x) and (b) PipeDream's K-k weight versions
  overflow device memory on BERT (the Figure 11/12 OOM) while single- and
  double-version systems fit.

These are engineering calibrations of a simulator, not measurements; the
shapes they produce (who wins, crossovers) are validated against the
paper in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profiler import Profiler
from repro.core.tuner import plan_for_spec
from repro.graph.cost_model import LayerCost, model_costs
from repro.graph.partitioner import Partition, partition_model
from repro.graph.partitioner import search_partition_placement  # noqa: F401  (patched by benchmarks/e2e/spans.py)
from repro.models.registry import WorkloadSpec, build_workload
from repro.schedules.base import Schedule
from repro.sim.cluster import ClusterSpec
from repro.sim.device import UtilizationCurve
from repro.sim.hetero import hetero_variant

__all__ = ["SimCalibration", "SIM_CALIBRATIONS", "calibration_for"]

MIB = 2**20


@dataclass(frozen=True)
class SimCalibration:
    """Per-workload simulator constants (see the module docstring)."""
    workload: str
    num_devices: int
    batch_size: int
    activation_byte_scale: float
    param_byte_scale: float
    memory_capacity_bytes: int  # per device
    stash_multiplier: float = 6.0  # internal activations per output byte
    optimizer_state_factor: float = 2.0  # Adam: m and v per weight
    #: kernel-saturation curve; AWD's small LSTM kernels need much larger
    #: micro-batches to approach peak (the paper's "maximize the
    #: micro-batch size" regime), so its b_half is far to the right.
    curve_u_max: float = 0.95
    curve_u_floor: float = 0.12
    curve_b_half: float = 10.0
    #: DDP all-reduce achieves a fraction of line rate; per-workload
    #: because bucket sizes and overlap differ with model shape.
    allreduce_inefficiency: float = 3.5

    def cluster_spec(self, variant: str | None = None) -> ClusterSpec:
        """The workload's cluster; ``variant`` applies one of the canned
        heterogeneous shapes from :mod:`repro.sim.hetero` on top of it.
        ``None`` returns exactly the uniform spec as before."""
        if self.num_devices % 2 != 0:
            raise ValueError("paper clusters have 2 GPUs per node")
        base = ClusterSpec(
            nodes=self.num_devices // 2,
            gpus_per_node=2,
            memory_bytes=self.memory_capacity_bytes,
            curve=UtilizationCurve(
                u_max=self.curve_u_max,
                u_floor=self.curve_u_floor,
                b_half=self.curve_b_half,
            ),
        )
        if variant is None:
            return base
        return hetero_variant(variant, base)

    def layer_costs(self, spec: WorkloadSpec | None = None) -> list[LayerCost]:
        spec = spec or build_workload(self.workload)
        return model_costs(spec.build_model())

    def partition(self, costs: list[LayerCost] | None = None) -> Partition:
        costs = costs or self.layer_costs()
        cspec = self.cluster_spec()
        return partition_model(
            costs,
            self.num_devices,
            bandwidth_bytes_per_sec=cspec.inter_node_bandwidth / self.activation_byte_scale,
            flops_per_sec=cspec.peak_flops,
            comm_weight=0.2,
        )

    def hetero_plan(
        self,
        variant: str,
        costs: list[LayerCost] | None = None,
        with_memory_caps: bool = False,
    ) -> tuple[Partition, tuple[int, ...]]:
        """Partition + placement for a canned hetero variant.

        :func:`~repro.core.tuner.plan_for_spec` with the same calibration
        constants as :meth:`partition` (byte re-inflation, comm_weight
        0.2) against the variant's per-device speeds and link matrix.
        ``with_memory_caps`` adds the variant's per-device capacities as
        DP feasibility caps, charging each layer 3x its (re-inflated)
        parameter bytes.
        """
        cspec = self.cluster_spec(variant)
        return plan_for_spec(
            costs or self.layer_costs(),
            cspec,
            activation_byte_scale=self.activation_byte_scale,
            param_byte_scale=self.param_byte_scale,
            comm_weight=0.2,
            memory_caps=cspec.memory_vector() if with_memory_caps else None,
        )

    def profiler(
        self,
        schedule: Schedule,
        *,
        variant: str | None = None,
        costs: list[LayerCost] | None = None,
        partition: Partition | None = None,
        placement: tuple[int, ...] | None = None,
        with_reference_model: bool = True,
        activation_recompute: bool = False,
    ) -> Profiler:
        """A :class:`Profiler` carrying this calibration's constants.

        ``variant`` picks the cluster (:meth:`cluster_spec`); ``costs``
        and ``partition`` default to :meth:`layer_costs` and
        :meth:`partition`.  Every other argument passes straight through.
        """
        costs = costs or self.layer_costs()
        return Profiler(
            layer_costs=costs,
            partition=partition if partition is not None else self.partition(costs),
            schedule=schedule,
            cluster_spec=self.cluster_spec(variant),
            batch_size=self.batch_size,
            activation_byte_scale=self.activation_byte_scale,
            param_byte_scale=self.param_byte_scale,
            stash_multiplier=self.stash_multiplier,
            optimizer_state_factor=self.optimizer_state_factor,
            with_reference_model=with_reference_model,
            activation_recompute=activation_recompute,
            placement=placement,
        )


SIM_CALIBRATIONS: dict[str, SimCalibration] = {
    "gnmt": SimCalibration(
        workload="gnmt",
        num_devices=6,
        batch_size=128,
        activation_byte_scale=128.0,
        param_byte_scale=88.0,
        memory_capacity_bytes=640 * MIB,
        stash_multiplier=3.75,
    ),
    "bert": SimCalibration(
        workload="bert",
        num_devices=6,
        batch_size=32,
        activation_byte_scale=100.0,
        param_byte_scale=160.0,
        memory_capacity_bytes=99 * MIB,
        stash_multiplier=1.5,
        allreduce_inefficiency=1.0,  # small model, effective bucketing
    ),
    "awd": SimCalibration(
        workload="awd",
        num_devices=4,
        batch_size=40,
        activation_byte_scale=32.0,
        param_byte_scale=300.0,
        memory_capacity_bytes=256 * MIB,
        optimizer_state_factor=1.0,  # SGD/ASGD keep one buffer, not Adam's two
        curve_u_max=0.9,
        curve_u_floor=0.08,
        curve_b_half=48.0,
    ),
}


def calibration_for(workload: str) -> SimCalibration:
    """The shipped calibration for a workload name."""
    try:
        return SIM_CALIBRATIONS[workload]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; available: {sorted(SIM_CALIBRATIONS)}"
        ) from None
