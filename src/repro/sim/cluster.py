"""Cluster topology: devices grouped into nodes, links between them.

:func:`make_cluster` builds the paper's testbed shape — ``nodes`` machines
with ``gpus_per_node`` devices each, fast intra-node links and a slow
shared-Ethernet path between nodes.  Device indices are global and
pipeline stage k maps to device k (the paper's straight-chain placement)
unless a placement permutation says otherwise.

A :class:`ClusterSpec` is *uniform* by default (every device identical,
every same-class link identical) — the paper's testbed.  Three optional
fields make it heterogeneous:

* ``device_speed`` — per-device multiplier on ``peak_flops`` (0.5 = a
  previous-generation part at half throughput);
* ``device_memory_bytes`` — absolute per-device memory capacities,
  overriding the shared ``memory_bytes``;
* ``link_overrides`` — ``(src, dst, bandwidth, latency)`` rows replacing
  the class-derived parameters of specific directed links (a congested
  or mis-cabled path).

A uniform spec is the degenerate heterogeneous one: its speeds are all
1.0 and IEEE multiplication by 1.0 is exact, so uniform clusters take
the same code paths and stay bit-for-bit what they were before these
fields existed.  The planner keeps one difference, in data only: it
prices every cut of a uniform spec at ``inter_node_bandwidth`` (the
seed planner's pricing).  Canned heterogeneous shapes live in
:mod:`repro.sim.hetero`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.device import Device, UtilizationCurve
from repro.sim.events import Simulator
from repro.sim.link import Link

__all__ = ["ClusterSpec", "Cluster", "make_cluster"]

GIB = 2**30


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware parameters; defaults mirror the paper's testbed scaled to
    the synthetic workloads' flop counts.

    ``peak_flops`` is deliberately small because the synthetic models are
    small; what matters is the *ratio* of compute time to communication
    time, tuned so inter-node activation transfers cost the same order as
    a micro-batch of compute — the regime where the paper's scheduling
    effects appear.
    """

    nodes: int = 3
    gpus_per_node: int = 2
    peak_flops: float = 2.0e8
    memory_bytes: int = 2 * GIB
    intra_node_bandwidth: float = 8.0e9  # NVLink/PCIe class, bytes/s
    inter_node_bandwidth: float = 1.25e8  # 1 Gbps Ethernet in bytes/s
    intra_node_latency: float = 5e-6
    inter_node_latency: float = 1e-4
    curve: UtilizationCurve = field(default_factory=UtilizationCurve)
    #: per-device speed multipliers (len == num_devices); None = uniform
    device_speed: tuple[float, ...] | None = None
    #: absolute per-device memory capacities; None = memory_bytes everywhere
    device_memory_bytes: tuple[int, ...] | None = None
    #: (src, dst, bandwidth_bytes_per_sec, latency_sec) rows replacing the
    #: class-derived parameters of specific *directed* links
    link_overrides: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self) -> None:
        d = self.num_devices
        if self.device_speed is not None:
            if len(self.device_speed) != d:
                raise ValueError(
                    f"device_speed has {len(self.device_speed)} entries for {d} devices"
                )
            if any(s <= 0 for s in self.device_speed):
                raise ValueError(f"device speeds must be positive: {self.device_speed}")
        if self.device_memory_bytes is not None:
            if len(self.device_memory_bytes) != d:
                raise ValueError(
                    f"device_memory_bytes has {len(self.device_memory_bytes)} "
                    f"entries for {d} devices"
                )
            if any(m <= 0 for m in self.device_memory_bytes):
                raise ValueError(
                    f"device memory capacities must be positive: {self.device_memory_bytes}"
                )
        for row in self.link_overrides:
            src, dst, bandwidth, latency = row
            if src == dst:
                raise ValueError(f"link override {row} is a self-link")
            if not (0 <= src < d and 0 <= dst < d):
                raise ValueError(f"link override {row} outside 0..{d - 1}")
            if bandwidth <= 0:
                raise ValueError(f"link override {row} has non-positive bandwidth")
            if latency < 0:
                raise ValueError(f"link override {row} has negative latency")

    @property
    def num_devices(self) -> int:
        return self.nodes * self.gpus_per_node

    @property
    def is_uniform(self) -> bool:
        """True when every device and same-class link is identical."""
        return (
            self.device_speed is None
            and self.device_memory_bytes is None
            and not self.link_overrides
        )

    # ------------------------------------------------------------------ #
    # per-device / per-link accessors (the planner's view of the spec)

    def node_of(self, device: int) -> int:
        return device // self.gpus_per_node

    def speed_of(self, device: int) -> float:
        return 1.0 if self.device_speed is None else self.device_speed[device]

    def peak_flops_of(self, device: int) -> float:
        """Effective peak of one device."""
        return self.peak_flops * self.speed_of(device)

    def memory_bytes_of(self, device: int) -> int:
        if self.device_memory_bytes is None:
            return self.memory_bytes
        return self.device_memory_bytes[device]

    def link_params(self, src: int, dst: int) -> tuple[float, float]:
        """(bandwidth, latency) of the directed link src -> dst."""
        if src == dst:
            raise ValueError("no self-links")
        for o_src, o_dst, bandwidth, latency in self.link_overrides:
            if o_src == src and o_dst == dst:
                return bandwidth, latency
        if self.node_of(src) == self.node_of(dst):
            return self.intra_node_bandwidth, self.intra_node_latency
        return self.inter_node_bandwidth, self.inter_node_latency

    def speed_vector(self) -> tuple[float, ...]:
        """Per-device speed multipliers (all ones for a uniform spec)."""
        return tuple(self.speed_of(i) for i in range(self.num_devices))

    def memory_vector(self) -> tuple[int, ...]:
        """Per-device memory capacities in bytes."""
        return tuple(self.memory_bytes_of(i) for i in range(self.num_devices))

    def bandwidth_matrix(self) -> list[list[float]]:
        """D x D directed bandwidths; the diagonal is +inf (no transfer)."""
        d = self.num_devices
        return [
            [
                float("inf") if i == j else self.link_params(i, j)[0]
                for j in range(d)
            ]
            for i in range(d)
        ]


class Cluster:
    """Devices grouped into nodes with lazily-created directed links."""
    def __init__(self, sim: Simulator, spec: ClusterSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.devices: list[Device] = [
            Device(
                sim,
                index=i,
                node=i // spec.gpus_per_node,
                peak_flops=spec.peak_flops_of(i),
                memory_bytes=spec.memory_bytes_of(i),
                curve=spec.curve,
            )
            for i in range(spec.num_devices)
        ]
        self._links: dict[tuple[int, int], Link] = {}

    def link(self, src: int, dst: int) -> Link:
        """The directed link between two devices (created lazily)."""
        if src == dst:
            raise ValueError("no self-links")
        key = (src, dst)
        if key not in self._links:
            bandwidth, latency = self.spec.link_params(src, dst)
            self._links[key] = Link(
                self.sim,
                src,
                dst,
                bandwidth_bytes_per_sec=bandwidth,
                latency_sec=latency,
            )
        return self._links[key]

    @property
    def num_devices(self) -> int:
        return len(self.devices)


def make_cluster(
    sim: Simulator,
    num_devices: int | None = None,
    spec: ClusterSpec | None = None,
    **overrides,
) -> Cluster:
    """Convenience factory.

    ``make_cluster(sim, 6)`` gives the paper's 3x2 testbed;
    ``make_cluster(sim, 4)`` the 2-node AWD configuration.
    """
    if spec is None:
        if num_devices is None:
            raise ValueError("pass num_devices or spec")
        if num_devices % 2 == 0:
            base = ClusterSpec(nodes=num_devices // 2, gpus_per_node=2, **overrides)
        else:
            base = ClusterSpec(nodes=num_devices, gpus_per_node=1, **overrides)
        spec = base
    elif num_devices is not None and spec.num_devices != num_devices:
        raise ValueError(f"spec has {spec.num_devices} devices, asked for {num_devices}")
    return Cluster(sim, spec)
