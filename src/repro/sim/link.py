"""Directed communication link.

Each transfer pays a fixed latency and then streams its bytes through the
link's shared bandwidth (demand 1.0 — network transfers saturate their
link, so two concurrent transfers on one link halve each other, as on a
real Ethernet).  Intra-node links (NVLink/PCIe class) are orders of
magnitude faster than the paper's 1 Gbps inter-node Ethernet; the
contrast is what makes 1F1B communication-bound in Figures 2 and 17.
"""

from __future__ import annotations

from repro.sim.events import Event, Simulator
from repro.sim.resource import SharedResource

__all__ = ["Link"]


class Link:
    """Directed bandwidth resource with latency (see module docstring)."""
    def __init__(
        self,
        sim: Simulator,
        src: int,
        dst: int,
        bandwidth_bytes_per_sec: float,
        latency_sec: float = 0.0,
        name: str | None = None,
    ) -> None:
        if bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_sec < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency = latency_sec
        self.bandwidth = bandwidth_bytes_per_sec
        self.pipe = SharedResource(
            sim, capacity=bandwidth_bytes_per_sec, name=name or f"link{src}->{dst}"
        )
        # Event names for the default transfer label, composed once: every
        # pipeline send pays this path, and the strings never change.
        self._xfer_done_name = f"{self.pipe.name}.xfer"
        self._xfer_gate_name = self._xfer_done_name + ".latency"

    # ------------------------------------------------------------------ #
    # fault hooks (repro.resilience)

    @property
    def partitioned(self) -> bool:
        return self.pipe.frozen

    def degrade(self, factor: float) -> None:
        """Divide the effective bandwidth by ``factor`` (congestion, flaky
        NIC); ``factor=1.0`` restores nominal.  In-flight transfers slow
        down from this instant."""
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        self.pipe.set_capacity(self.bandwidth / factor)

    def sever(self) -> None:
        """Network partition: transfers stall entirely until :meth:`heal`."""
        self.pipe.freeze()

    def heal(self) -> None:
        """Undo :meth:`sever` and any degradation; stalled bytes resume."""
        self.pipe.set_capacity(self.bandwidth)
        self.pipe.unfreeze()

    def transfer(self, nbytes: float, name: str = "xfer") -> Event:
        """Start a transfer now; the event fires on delivery."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if name == "xfer":
            done_name = self._xfer_done_name
            gate_name = self._xfer_gate_name
        else:
            done_name = f"{self.pipe.name}.{name}"
            gate_name = done_name + ".latency"
        done = Event(self.sim, name=done_name)
        if self.latency == 0.0:
            self.pipe._submit(nbytes, 1.0, done)
            return done

        def start(_: Event) -> None:
            self.pipe._submit(nbytes, 1.0, done)

        gate = Event(self.sim, name=gate_name)
        gate.callbacks = [start]
        self.sim.schedule(self.latency, gate)
        return done
