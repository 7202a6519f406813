"""Directed communication link.

Each transfer pays a fixed latency and then streams its bytes through the
link's shared bandwidth (demand 1.0 — network transfers saturate their
link, so two concurrent transfers on one link halve each other, as on a
real Ethernet).  Intra-node links (NVLink/PCIe class) are orders of
magnitude faster than the paper's 1 Gbps inter-node Ethernet; the
contrast is what makes 1F1B communication-bound in Figures 2 and 17.
"""

from __future__ import annotations

import heapq

from repro.sim.events import Event, Simulator
from repro.sim.resource import SharedResource

__all__ = ["Link"]


class _LatencyGate:
    """A transfer's latency, as a heap entry (see :mod:`repro.sim.events`):
    when it pops, the bytes start streaming through the link."""

    __slots__ = ("pipe", "nbytes", "done", "count")
    cancelled = False
    triggered = False
    value = None

    def __init__(self, pipe: SharedResource, nbytes: float, done, count: int) -> None:
        self.pipe = pipe
        self.nbytes = nbytes
        self.done = done
        self.count = count

    def succeed(self, value=None) -> None:
        self.pipe.submit(self.nbytes, 1.0, self.done, self.count)


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

    def transfer(self, nbytes: float, name: str = "xfer", done=None, count: int = 1):
        """Start a transfer now and return ``done``, which completes on
        delivery: a fresh :class:`Event` unless the caller passes its own
        heap entry (see :mod:`repro.sim.events`).  ``count`` equal
        transfers may share one ``done`` (see :mod:`repro.sim.resource`)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if done is None:
            done = Event(self.sim, name=f"{self.pipe.name}.{name}")
        if self.latency == 0.0:
            self.pipe.submit(nbytes, 1.0, done, count)
        else:
            # Simulator.schedule without its check: latency >= 0 is
            # validated once, in __init__.
            sim = self.sim
            sim._seq += 1
            heapq.heappush(
                sim._heap,
                (sim.now + self.latency, sim._seq, _LatencyGate(self.pipe, nbytes, done, count)),
            )
        return done
