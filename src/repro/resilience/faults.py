"""Seeded, deterministic fault injection for the discrete-event simulator.

The paper's architecture — N loosely-coupled pipelines joined only
through the elastically-averaged reference — is what makes graceful
degradation *possible*; this module supplies the adversary.  A
:class:`FaultPlan` is a declarative, serializable schedule of
:class:`FaultEvent`\\ s (usable from configs and tests); a
:class:`FaultInjector` turns the plan into simulator processes that wrap
the ``sim.device`` / ``sim.link`` service rates at the scheduled times:

* ``pipeline_crash`` — one pipeline's processes die (the runner aborts
  and drains that pipeline; other pipelines only shared device time);
* ``device_crash`` — a device freezes: in-flight and future kernels make
  no progress until the optional restart;
* ``device_slowdown`` — a transient straggler: the device serves at
  ``peak/factor`` over a time window;
* ``link_degrade`` / ``link_partition`` — bandwidth divided by a factor,
  or the link severed entirely, over a window.

Every plan is reproducible: the injector's processes ride the
deterministic event heap, so a chaos run is exactly replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cluster import Cluster
from repro.sim.events import Simulator
from repro.sim.trace import SpanKind, TraceRecorder

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FAULT_KINDS"]

FAULT_KINDS = (
    "pipeline_crash",
    "device_crash",
    "device_slowdown",
    "link_degrade",
    "link_partition",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is a pipeline index (``pipeline_crash``), a device index
    (``device_*``) or a ``(src, dst)`` device pair (``link_*``).
    ``duration=None`` means permanent (no restart / no heal).
    ``factor`` is the slowdown/degradation multiple for transient kinds.
    """

    kind: str
    at: float
    target: int | tuple[int, int]
    duration: float | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"fault duration must be positive, got {self.duration}")
        if self.kind in ("device_slowdown", "link_degrade") and self.factor <= 1.0:
            raise ValueError(f"{self.kind} needs factor > 1, got {self.factor}")
        if self.kind.startswith("link"):
            if not (isinstance(self.target, tuple) and len(self.target) == 2):
                raise ValueError(f"{self.kind} target must be a (src, dst) pair")
        elif not isinstance(self.target, int):
            raise ValueError(f"{self.kind} target must be an index, got {self.target!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": self.at,
            "target": list(self.target) if isinstance(self.target, tuple) else self.target,
            "duration": self.duration,
            "factor": self.factor,
        }


@dataclass
class FaultPlan:
    """A seeded schedule of faults, sorted by injection time."""

    events: list[FaultEvent] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}


@dataclass
class InjectedFault:
    """Bookkeeping for one applied fault (used by the chaos report)."""

    event: FaultEvent
    applied_at: float | None = None
    reverted_at: float | None = None


class FaultInjector:
    """Installs a :class:`FaultPlan` as processes on a simulator.

    ``runner`` (a :class:`~repro.schedules.executor.PipelineSimRunner`)
    is only needed for ``pipeline_crash`` events; pure device/link plans
    work on a bare cluster.  Applied faults are logged and, when a trace
    recorder is given, recorded as ``FAULT`` spans so timelines show the
    outage windows.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        runner=None,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.runner = runner
        self.trace = trace
        self.log: list[InjectedFault] = []

    def install(self, plan: FaultPlan) -> None:
        """Spawn one injection process per event in the plan.  Each
        ``pipeline_crash`` target is isolated from its lockstep group
        (:meth:`~repro.schedules.executor.PipelineSimRunner.isolate_pipeline`),
        so install before the runner runs."""
        for event in plan.events:
            if event.kind == "pipeline_crash":
                if self.runner is None:
                    raise ValueError("pipeline_crash events need a runner")
                self.runner.isolate_pipeline(event.target)
            entry = InjectedFault(event)
            self.log.append(entry)
            self.sim.process(self._inject(entry), name=f"fault.{event.kind}")

    # ------------------------------------------------------------------ #

    def _inject(self, entry: InjectedFault):
        event = entry.event
        delay = event.at - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay, name="fault.arm")
        entry.applied_at = self.sim.now
        self._apply(event)
        if event.duration is None:
            return  # permanent
        yield self.sim.timeout(event.duration, name="fault.window")
        self._revert(event)
        entry.reverted_at = self.sim.now
        self._record(event, entry.applied_at, entry.reverted_at)

    def _apply(self, event: FaultEvent) -> None:
        if event.kind == "pipeline_crash":
            self.runner.crash_pipeline(event.target)
        elif event.kind == "device_crash":
            self.cluster.devices[event.target].fail()
        elif event.kind == "device_slowdown":
            self.cluster.devices[event.target].set_slowdown(event.factor)
        elif event.kind == "link_degrade":
            self.cluster.link(*event.target).degrade(event.factor)
        elif event.kind == "link_partition":
            self.cluster.link(*event.target).sever()

    def _revert(self, event: FaultEvent) -> None:
        if event.kind == "pipeline_crash":
            return  # a dead process does not come back by itself
        if event.kind == "device_crash":
            self.cluster.devices[event.target].restore()
        elif event.kind == "device_slowdown":
            self.cluster.devices[event.target].set_slowdown(1.0)
        else:
            self.cluster.link(*event.target).heal()

    def _record(self, event: FaultEvent, start: float, end: float) -> None:
        if self.trace is None or end <= start:
            return
        device = event.target[0] if isinstance(event.target, tuple) else event.target
        if event.kind == "pipeline_crash":
            device = 0
        self.trace.record(device, start, end, SpanKind.FAULT, event.kind)

    def finalize(self, end_time: float | None = None) -> None:
        """Close out permanent faults so their windows appear in traces."""
        end = self.sim.now if end_time is None else end_time
        for entry in self.log:
            if entry.applied_at is not None and entry.reverted_at is None:
                self._record(entry.event, entry.applied_at, end)
