"""Per-device memory accounting.

The ledger tracks named allocations (weights, optimizer state, activation
stashes) with peak tracking; exceeding capacity raises
:class:`OutOfMemoryError` — how the PipeDream-on-BERT OOM of Figure 11/12
reproduces.  Allocation is instantaneous (memory changes at op boundaries
in every schedule we model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MemoryLedger", "OutOfMemoryError"]


class OutOfMemoryError(RuntimeError):
    """Raised when a device allocation exceeds its capacity."""

    def __init__(self, device: str, requested: int, used: int, capacity: int, tag: str) -> None:
        super().__init__(
            f"OOM on {device}: allocating {requested / 2**20:.1f} MiB ({tag}) with "
            f"{used / 2**20:.1f} MiB in use of {capacity / 2**20:.1f} MiB"
        )
        self.device = device
        self.requested = requested
        self.used = used
        self.capacity = capacity
        self.tag = tag


@dataclass
class MemoryLedger:
    """Byte-accurate allocation tracking with category breakdown."""

    capacity: int
    device_name: str = "device"
    used: int = 0
    peak: int = 0
    by_tag: dict[str, int] = field(default_factory=dict)
    peak_by_tag: dict[str, int] = field(default_factory=dict)

    def alloc(self, nbytes: int, tag: str = "untagged", enforce: bool = True) -> None:
        """Allocate; ``enforce=False`` records an over-capacity footprint
        without raising (used for the paper's own anomaly of reporting a
        data-parallel footprint above device memory — see Figure 12)."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        if enforce and self.used + nbytes > self.capacity:
            raise OutOfMemoryError(self.device_name, nbytes, self.used, self.capacity, tag)
        self.used += nbytes
        self.by_tag[tag] = self.by_tag.get(tag, 0) + nbytes
        self.peak = max(self.peak, self.used)
        self.peak_by_tag[tag] = max(self.peak_by_tag.get(tag, 0), self.by_tag[tag])

    def free(self, nbytes: int, tag: str = "untagged") -> None:
        if nbytes < 0:
            raise ValueError(f"negative free {nbytes}")
        current = self.by_tag.get(tag, 0)
        if nbytes > current:
            raise ValueError(
                f"{self.device_name}: freeing {nbytes} bytes of {tag!r} "
                f"but only {current} allocated"
            )
        self.by_tag[tag] = current - nbytes
        self.used -= nbytes

    def publish(self, registry, **labels) -> None:
        """Mirror current/peak footprints into a metric registry.

        Gauges: ``sim.mem.used_bytes`` / ``sim.mem.peak_bytes`` plus a
        per-tag ``sim.mem.tag_peak_bytes`` high-water mark (the Figure-12
        activation/weight breakdown).  ``labels`` typically carries the
        owning device index.
        """
        registry.gauge("sim.mem.used_bytes", **labels).set(self.used)
        registry.gauge("sim.mem.peak_bytes", **labels).set(self.peak)
        registry.gauge("sim.mem.capacity_bytes", **labels).set(self.capacity)
        for tag, peak in sorted(self.peak_by_tag.items()):
            registry.gauge("sim.mem.tag_peak_bytes", tag=tag, **labels).set(peak)
