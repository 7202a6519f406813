"""Simulated GPU: compute resource + memory + utilization curve.

The utilization curve maps a kernel's micro-batch size to the fraction of
peak throughput a single kernel extracts (its *demand* on the shared
compute resource).  The saturating form

    u(b) = u_floor + (u_max - u_floor) * b / (b + b_half)

matches the paper's observations: small micro-batches leave arithmetic
intensity low (~60% peak for vanilla pipelines in Figure 2), whole
batches approach peak, and co-running a second pipeline raises device
utilization with diminishing returns (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.events import Event, Simulator
from repro.sim.memory import MemoryLedger
from repro.sim.resource import SharedResource

__all__ = ["UtilizationCurve", "Device"]


@dataclass(frozen=True)
class UtilizationCurve:
    """Saturating micro-batch-size -> single-kernel utilization map."""

    u_max: float = 0.95
    u_floor: float = 0.12
    b_half: float = 10.0

    def __post_init__(self) -> None:
        if not 0 <= self.u_floor < self.u_max <= 1.0:
            raise ValueError(f"need 0 <= u_floor < u_max <= 1, got {self}")
        if self.b_half <= 0:
            raise ValueError("b_half must be positive")

    def demand(self, micro_batch_size: float) -> float:
        if micro_batch_size <= 0:
            raise ValueError(f"micro-batch size must be positive, got {micro_batch_size}")
        u = self.u_floor + (self.u_max - self.u_floor) * micro_batch_size / (
            micro_batch_size + self.b_half
        )
        return min(u, 1.0)


class Device:
    """One simulated GPU."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        node: int,
        peak_flops: float,
        memory_bytes: int,
        curve: UtilizationCurve | None = None,
    ) -> None:
        self.sim = sim
        self.index = index
        self.node = node
        self.peak_flops = peak_flops
        self.curve = curve or UtilizationCurve()
        self.compute = SharedResource(sim, capacity=peak_flops, name=f"gpu{index}")
        self.memory = MemoryLedger(capacity=memory_bytes, device_name=f"gpu{index}")
        self.failed = False
        self._slowdown = 1.0

    def kernel_demand(self, micro_batch_size: float) -> float:
        """Demand of one kernel at ``micro_batch_size`` (the curve's value)."""
        return self.curve.demand(micro_batch_size)

    def run_kernel(self, flops: float, micro_batch_size: float, name: str = "kernel") -> Event:
        """Submit a compute kernel; returns its completion event."""
        return self.compute.execute(flops, self.kernel_demand(micro_batch_size), name=name)

    # ------------------------------------------------------------------ #
    # fault hooks (repro.resilience)

    def fail(self) -> None:
        """Crash the device: in-flight and future kernels make no progress."""
        self.failed = True
        self.compute.freeze()

    def restore(self) -> None:
        """Bring a crashed device back; frozen kernels resume."""
        self.failed = False
        self.compute.unfreeze()

    @property
    def slowdown(self) -> float:
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Throttle the device to ``peak_flops / factor`` (a straggler).

        ``factor=1.0`` restores nominal speed.  Takes effect immediately,
        including for kernels already in flight.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self._slowdown = factor
        self.compute.set_capacity(self.peak_flops / factor)

    # ------------------------------------------------------------------ #
    # telemetry (repro.obs)

    def publish_telemetry(self, registry) -> None:
        """Publish the device's observable state as registry gauges:
        frozen, capacity, nominal capacity, slowdown and utilization, plus
        the memory ledger's (the gauge catalog is in docs/observability.md)."""
        registry.gauge("sim.device.frozen", device=self.index).set(
            1.0 if self.compute.frozen else 0.0
        )
        registry.gauge("sim.device.capacity", device=self.index).set(self.compute.capacity)
        registry.gauge("sim.device.nominal_capacity", device=self.index).set(
            self.compute.nominal_capacity
        )
        registry.gauge("sim.device.slowdown", device=self.index).set(self._slowdown)
        registry.gauge("sim.device.utilization", device=self.index).set(
            self.compute.current_demand
        )
        self.memory.publish(registry, device=self.index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Device(gpu{self.index}, node={self.node})"
