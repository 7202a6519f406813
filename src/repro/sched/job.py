"""Job model for the multi-tenant scheduler.

A :class:`Job` is one tenant's training request against the shared
cluster: a workload family (which fixes the cost model and simulator
calibration), a pipeline depth K (devices per parallel pipeline), a
micro-batch count M, a total amount of work in batches, and an elastic
range [min_pipelines, max_pipelines] for N — the paper's runtime knob
that the scheduler turns into a *capacity* tool.

The state machine is the issue's: queued → admitted → running →
resizing/preempted → done, with two extra terminals the control plane
needs in practice: ``rejected`` (the job cannot fit the cluster even
when it is empty — admission control proves this with the memory
predictor before ever queueing work behind it).  ``resizing`` is a
transient state: grows and shrinks happen at event boundaries, so a job
passes through it and back to ``running`` at the same timestamp, leaving
a record in :attr:`Job.trajectory`.

Every transition is validated; an illegal edge raises
:class:`JobStateError` rather than silently corrupting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["JobState", "JobStateError", "JobSpec", "Job"]


class JobState:
    """String constants for the job lifecycle (str, not Enum, so logs and
    JSON serialize without adapters)."""

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    RESIZING = "resizing"
    PREEMPTED = "preempted"
    DONE = "done"
    REJECTED = "rejected"

    ALL = (QUEUED, ADMITTED, RUNNING, RESIZING, PREEMPTED, DONE, REJECTED)


#: legal edges of the lifecycle graph
_TRANSITIONS: dict[str, tuple[str, ...]] = {
    JobState.QUEUED: (JobState.ADMITTED, JobState.REJECTED),
    JobState.ADMITTED: (JobState.RUNNING,),
    JobState.RUNNING: (JobState.RESIZING, JobState.PREEMPTED, JobState.DONE),
    JobState.RESIZING: (JobState.RUNNING,),
    JobState.PREEMPTED: (JobState.ADMITTED,),
    JobState.DONE: (),
    JobState.REJECTED: (),
}


class JobStateError(RuntimeError):
    """An illegal lifecycle transition was attempted."""


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one training request."""

    job_id: str
    family: str  # workload name: "gnmt" | "bert" | "awd"
    num_stages: int  # K: devices per pipeline chain
    num_micro: int  # M: micro-batches per batch
    total_batches: int  # work, in batches per pipeline-iteration
    priority: int = 0  # higher preempts lower under the priority policy
    weight: float = 1.0  # share under weighted fair-share
    pipelines: int = 1  # requested N
    min_pipelines: int = 1  # elastic floor
    max_pipelines: int = 1  # elastic ceiling
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        if self.num_stages < 1:
            raise ValueError(f"{self.job_id}: num_stages must be >= 1")
        if self.num_micro < 1:
            raise ValueError(f"{self.job_id}: num_micro must be >= 1")
        if self.total_batches < 1:
            raise ValueError(f"{self.job_id}: total_batches must be >= 1")
        if not (1 <= self.min_pipelines <= self.pipelines <= self.max_pipelines):
            raise ValueError(
                f"{self.job_id}: need 1 <= min <= requested <= max pipelines, got "
                f"{self.min_pipelines}/{self.pipelines}/{self.max_pipelines}"
            )
        if self.weight <= 0:
            raise ValueError(f"{self.job_id}: weight must be positive")
        if self.submit_time < 0:
            raise ValueError(f"{self.job_id}: negative submit_time")


@dataclass
class Job:
    """Mutable runtime state of one job inside the scheduler."""

    spec: JobSpec
    state: str = JobState.QUEUED
    #: pipeline chains currently granted (list of ChainPlan; empty unless
    #: admitted).  Chain 0 hosts the reference model.
    chains: list = field(default_factory=list)
    batches_done: float = 0.0
    rate: float = 0.0  # batches per simulated second at the current grant
    device_seconds: float = 0.0  # integral of granted devices over time
    running_seconds: float = 0.0
    admitted_at: float | None = None  # first admission
    finished_at: float | None = None
    preempted_at: float | None = None
    waits: list[float] = field(default_factory=list)  # queue-wait segments
    #: (time, kind, n_after) rows; kind in {"admit", "grow", "shrink",
    #: "preempt", "resume"} — the N-trajectory the numerics cross-check
    #: replays on a real trainer.
    trajectory: list[tuple[float, str, int]] = field(default_factory=list)
    #: (footprints, caps) rows for every chain ever granted — the audit
    #: trail the fuzzer checks against per-device capacities.
    admission_audit: list[tuple[tuple[float, ...], tuple[int, ...]]] = field(
        default_factory=list
    )
    preemptions: int = 0
    checkpoints: list[str] = field(default_factory=list)

    def transition(self, new_state: str) -> None:
        if new_state not in _TRANSITIONS.get(self.state, ()):
            raise JobStateError(
                f"job {self.spec.job_id}: illegal transition "
                f"{self.state} -> {new_state}"
            )
        self.state = new_state

    # ------------------------------------------------------------------ #

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def num_pipelines(self) -> int:
        return len(self.chains)

    @property
    def devices(self) -> list[int]:
        """All devices currently granted, in chain order."""
        return [d for chain in self.chains for d in chain.devices]

    @property
    def remaining_batches(self) -> float:
        return max(0.0, self.spec.total_batches - self.batches_done)

    @property
    def is_terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.REJECTED)

    @property
    def queue_wait(self) -> float:
        """First-admission wait (the queue-wait histogram's quantity)."""
        return self.waits[0] if self.waits else float("nan")

    @property
    def was_resized(self) -> bool:
        return any(kind in ("grow", "shrink") for _, kind, _ in self.trajectory)

    @property
    def was_preempted(self) -> bool:
        return self.preemptions > 0

    def finish_time(self, now: float) -> float:
        """Projected completion at the current rate."""
        if self.rate <= 0:
            return float("inf")
        return now + self.remaining_batches / self.rate

    def n_label(self) -> str:
        """Human-readable N trajectory, e.g. ``2→3→1``."""
        ns = [n for _, kind, n in self.trajectory if kind != "preempt"]
        if not ns:
            return "-"
        out = [ns[0]]
        for n in ns[1:]:
            if n != out[-1]:
                out.append(n)
        return "→".join(str(n) for n in out)
