"""Failure detection over the simulated clock.

Two detectors, one per layer of the stack:

* :class:`HeartbeatDetector` — a simulator process that polls the
  executor's *progress clock* (``PipelineSimRunner.last_progress``,
  advanced on every completed FWD/BWD span) plus device capacity
  telemetry.  A pipeline silent for more than
  ``interval * miss_threshold`` simulated seconds is reported crashed; a
  frozen device is reported as a device crash; a device whose observed
  capacity has dropped below ``peak / straggler_factor`` is reported as
  a straggler.  Detection is *inference from silence* — the detector
  never reads the runner's crash bookkeeping, so tests can assert it
  fires iff a fault was actually injected.

* :class:`IterationHeartbeat` — the trainer-side analogue over the
  *iteration clock*: each live pipeline beats once per completed batch,
  and a pipeline more than ``miss_threshold`` batches behind the front
  is reported.  The numeric trainer has no wall clock, so batches are
  the only meaningful heartbeat unit there.

The heartbeat interval must exceed the longest *natural* silence (one
batch at the slowest tolerated speed), exactly as in a real deployment;
the chaos harness derives it from a fault-free profile run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cluster import Cluster
from repro.sim.events import Simulator

__all__ = ["FailureReport", "HeartbeatDetector", "IterationHeartbeat"]


@dataclass(frozen=True)
class FailureReport:
    """One detection: what failed, when the detector noticed, and why."""

    kind: str  # "pipeline_crash" | "device_crash" | "link_partition" | "straggler"
    target: int
    detected_at: float
    evidence: str = ""
    #: observed slowdown multiple (stragglers only; 1.0 otherwise) — the
    #: retune policy degrades its cluster model by this factor.
    severity: float = 1.0


class HeartbeatDetector:
    """Polls runner progress and device telemetry on the sim clock."""

    def __init__(
        self,
        sim: Simulator,
        runner,
        cluster: Cluster,
        interval: float = 1.0,
        miss_threshold: float = 3.0,
        straggler_factor: float | None = None,
        max_polls: int = 100_000,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.sim = sim
        self.runner = runner
        self.cluster = cluster
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.straggler_factor = straggler_factor
        self.max_polls = max_polls
        self.reports: list[FailureReport] = []
        self._reported: set[tuple[str, int]] = set()
        self._stopped = False
        self._process = None

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("detector already started")
        self._process = self.sim.process(self._monitor(), name="resilience.detector")

    def stop(self) -> None:
        """Stop polling; the monitor process exits on its next wake-up."""
        self._stopped = True

    # ------------------------------------------------------------------ #

    def _monitor(self):
        for _ in range(self.max_polls):
            yield self.sim.timeout(self.interval, name="detector.poll")
            if self._stopped:
                return
            self._poll()

    def _poll(self) -> None:
        now = self.sim.now
        frozen_devices = []
        severed_links = []
        for (src, dst), link in self.cluster._links.items():
            if not link.partitioned:
                continue
            severed_links.append((src, dst))
            self._report(
                "link_partition",
                src,
                f"link {src}->{dst} unreachable (telemetry)",
            )
        for d in self.cluster.devices:
            device = d.index
            capacity, nominal = d.compute.capacity, d.compute.nominal_capacity
            if d.compute.frozen:
                frozen_devices.append(device)
                self._report(
                    "device_crash",
                    device,
                    f"device {device} compute frozen (telemetry)",
                )
            elif (
                self.straggler_factor is not None
                and capacity > 0
                and nominal >= self.straggler_factor * capacity
            ):
                self._report(
                    "straggler",
                    device,
                    f"device {device} at {capacity / nominal:.2%} of peak",
                    severity=nominal / capacity,
                )
        if frozen_devices or severed_links:
            # Every pipeline has a stage on a dead device (straight-chain
            # placement) and a severed link starves them all, so pipeline
            # silence is explained — don't also raise per-pipeline crash
            # reports for the same outage.
            return
        deadline = self.interval * self.miss_threshold
        for pipeline, last in self.runner.last_progress.items():
            if now - last > deadline:
                self._report(
                    "pipeline_crash",
                    pipeline,
                    f"no progress for {now - last:.3f}s "
                    f"(> {self.miss_threshold:g} x {self.interval:g}s heartbeat)",
                )

    def _report(self, kind: str, target: int, evidence: str, severity: float = 1.0) -> None:
        key = (kind, target)
        if key in self._reported:
            return
        self._reported.add(key)
        self.reports.append(FailureReport(kind, target, self.sim.now, evidence, severity))


@dataclass
class IterationHeartbeat:
    """Trainer-level liveness over the iteration clock.

    Call :meth:`beat` whenever a pipeline finishes a batch; :meth:`check`
    reports pipelines more than ``miss_threshold`` batches behind the
    most advanced one.  Pipelines evicted from the trainer should be
    retired with :meth:`retire` so they stop being monitored.
    """

    miss_threshold: int = 2
    last_beat: dict[int, int] = field(default_factory=dict)
    _reported: set[int] = field(default_factory=set)

    def beat(self, pipeline: int, iteration: int) -> None:
        self.last_beat[pipeline] = iteration

    def retire(self, pipeline: int) -> None:
        self.last_beat.pop(pipeline, None)
        self._reported.discard(pipeline)

    def check(self) -> list[FailureReport]:
        if not self.last_beat:
            return []
        front = max(self.last_beat.values())
        out = []
        for pipeline, beat in sorted(self.last_beat.items()):
            if front - beat > self.miss_threshold and pipeline not in self._reported:
                self._reported.add(pipeline)
                out.append(
                    FailureReport(
                        "pipeline_crash",
                        pipeline,
                        float(front),
                        f"{front - beat} batches behind the front",
                    )
                )
        return out
