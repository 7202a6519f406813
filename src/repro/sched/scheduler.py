"""Deterministic event-driven multi-job scheduler on the simulated cluster.

The scheduler owns the cluster occupancy (which job holds which
devices), a queue of submitted jobs and the simulated clock.  Only two
kinds of external events exist — job arrivals (precomputed by the seeded
workload generator) and job completions (projected from each running
job's Eq.-1 service rate) — so the loop advances the clock to the next
event, integrates progress and device-time, then lets the policy react
by admitting / preempting / resizing through the primitives below.

Determinism: events at equal timestamps process completions before
arrivals; every iteration over jobs or devices is explicitly ordered;
all clock arithmetic is plain float with no wall-clock or RNG input
beyond the generator's seed.  Two runs with the same (scenario, policy,
seed) produce byte-identical event logs — pinned by tests and the
committed ``sched_smoke.txt`` golden.

Bookkeeping invariants (audited by the ``repro.verify`` job-arrival
fuzzer):

* a device is owned by at most one job at any instant;
* every admitted chain's Eq.-8 footprints fit its devices' capacities;
* busy-device-seconds integrated over the run equals the sum of the
  per-job device-seconds (device-time conservation);
* every non-rejected job reaches ``done`` (no starvation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.registry import MetricRegistry
from repro.sim.cluster import ClusterSpec

from repro.sched.job import Job, JobState
from repro.sched.service import ChainPlan, JobPlanner

__all__ = ["SchedulerError", "ClusterScheduler", "SchedResult"]

#: buckets for the per-job throughput histogram (batches per simulated
#: second; jobs at this scale land between ~1 and ~1000)
THROUGHPUT_BUCKETS: tuple[float, ...] = tuple(0.25 * 2.0**i for i in range(16))

#: buckets for the queue-wait histogram: sub-millisecond admissions up
#: to ~500 s head-of-line stalls, ratio-2 so FIFO-vs-elastic tails land
#: in different buckets at this scale
WAIT_BUCKETS: tuple[float, ...] = tuple(5e-4 * 2.0**i for i in range(21))


class SchedulerError(RuntimeError):
    """Internal bookkeeping violation (a bug, not a user error)."""


@dataclass
class SchedResult:
    """Everything one scheduler run produced."""

    scenario: str
    policy: str
    seed: int
    spec: ClusterSpec
    jobs: list[Job]
    log: list[str]
    makespan: float
    utilization: float
    busy_device_seconds: float
    registry: MetricRegistry

    def log_text(self) -> str:
        return "\n".join(self.log) + "\n"

    def queue_wait_summary(self) -> dict:
        """Exact queue-wait quantiles from the per-job wait segments.

        The ``sched.queue_wait`` *histogram* carries the same data into
        the metric registry (and ``repro report``); the verdict tables
        use the exact values so a FIFO-vs-elastic improvement can't be
        hidden by two tails landing in the same bucket.
        """
        waits = sorted(w for j in self.jobs for w in j.waits)
        if not waits:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

        def q(p: float) -> float:
            # nearest-rank: smallest wait covering fraction p of samples
            import math

            return waits[min(len(waits) - 1, max(0, math.ceil(p * len(waits)) - 1))]

        return {
            "count": len(waits),
            "mean": sum(waits) / len(waits),
            "p50": q(0.50),
            "p95": q(0.95),
            "p99": q(0.99),
        }

    @property
    def completed(self) -> list[Job]:
        return [j for j in self.jobs if j.state == JobState.DONE]

    @property
    def rejected(self) -> list[Job]:
        return [j for j in self.jobs if j.state == JobState.REJECTED]

    def to_dict(self) -> dict:
        wait = self.queue_wait_summary()
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "seed": self.seed,
            "num_devices": self.spec.num_devices,
            "jobs": len(self.jobs),
            "completed": len(self.completed),
            "rejected": len(self.rejected),
            "makespan_seconds": self.makespan,
            "cluster_utilization": self.utilization,
            "busy_device_seconds": self.busy_device_seconds,
            "queue_wait": wait,
            "metrics": self.registry.snapshot(),
        }


@dataclass
class _Occupancy:
    """Device ownership bookkeeping (the repro.sim occupancy view)."""

    num_devices: int
    owner: dict[int, str] = field(default_factory=dict)

    @property
    def free(self) -> list[int]:
        return [d for d in range(self.num_devices) if d not in self.owner]

    def claim(self, devices, job_id: str) -> None:
        for d in devices:
            if d in self.owner:
                raise SchedulerError(
                    f"device {d} already owned by {self.owner[d]}, "
                    f"claimed for {job_id}"
                )
            self.owner[d] = job_id

    def release(self, devices, job_id: str) -> None:
        for d in devices:
            if self.owner.get(d) != job_id:
                raise SchedulerError(
                    f"device {d} not owned by {job_id} at release"
                )
            del self.owner[d]


class ClusterScheduler:
    """One deterministic scheduling run over a fixed job list."""

    def __init__(
        self,
        spec: ClusterSpec,
        jobs: list[Job],
        policy,
        registry: MetricRegistry | None = None,
        scenario: str = "custom",
        seed: int = 0,
    ) -> None:
        from repro.sched.policies import make_policy

        self.spec = spec
        self.jobs = sorted(jobs, key=lambda j: (j.spec.submit_time, j.job_id))
        self.policy = make_policy(policy)
        self.registry = registry if registry is not None else MetricRegistry()
        self.scenario = scenario
        self.seed = seed
        self.planner = JobPlanner(spec)
        self.occupancy = _Occupancy(spec.num_devices)
        self.queue: list[Job] = []  # QUEUED + PREEMPTED, awaiting (re-)admission
        self.running: list[Job] = []
        self.now = 0.0
        self.busy_device_seconds = 0.0
        self.log: list[str] = []
        self._finished = 0

    # ------------------------------------------------------------------ #
    # event loop

    def run(self) -> SchedResult:
        pending = list(self.jobs)  # already submit-time sorted
        while pending or self.running:
            next_arrival = pending[0].spec.submit_time if pending else float("inf")
            completing = self._next_completion()
            finish = completing.finish_time(self.now) if completing else float("inf")
            if completing is not None and finish <= next_arrival:
                self._advance(finish)
                self._complete(completing)
            else:
                job = pending.pop(0)
                self._advance(next_arrival)
                self._submit(job)
            self.policy.on_event(self)
        if self.queue:
            stuck = ", ".join(j.job_id for j in self.queue)
            raise SchedulerError(f"run ended with jobs still queued: {stuck}")
        return self._finalize()

    def _next_completion(self) -> Job | None:
        if not self.running:
            return None
        return min(
            self.running, key=lambda j: (j.finish_time(self.now), j.job_id)
        )

    def _advance(self, t: float) -> None:
        dt = t - self.now
        if dt < -1e-12:
            raise SchedulerError(f"clock moved backwards: {self.now} -> {t}")
        if dt > 0:
            busy = 0
            for job in sorted(self.running, key=lambda j: j.job_id):
                n_dev = len(job.devices)
                busy += n_dev
                job.device_seconds += n_dev * dt
                job.running_seconds += dt
                job.batches_done = min(
                    job.spec.total_batches, job.batches_done + job.rate * dt
                )
            self.busy_device_seconds += busy * dt
        self.now = t

    # ------------------------------------------------------------------ #
    # job lifecycle

    def _submit(self, job: Job) -> None:
        s = job.spec
        self._log(
            "submit",
            job,
            f"family={s.family} stages={s.num_stages} micro={s.num_micro} "
            f"batches={s.total_batches} prio={s.priority} "
            f"n={s.pipelines} (min={s.min_pipelines} max={s.max_pipelines})",
        )
        self._count("submitted")
        if not self.planner.best_case_fits(s.family, s.num_stages, s.num_micro):
            job.transition(JobState.REJECTED)
            self._log("reject", job, "does not fit the empty cluster")
            self._count("rejected")
            return
        self.queue.append(job)

    def _complete(self, job: Job) -> None:
        job.batches_done = float(job.spec.total_batches)
        job.transition(JobState.DONE)
        job.finished_at = self.now
        self._release_chains(job)
        job.rate = 0.0
        self.running.remove(job)
        self._finished += 1
        throughput = (
            job.spec.total_batches / job.running_seconds
            if job.running_seconds > 0
            else 0.0
        )
        self.registry.histogram(
            "sched.job_throughput", buckets=THROUGHPUT_BUCKETS
        ).observe(throughput)
        self.registry.gauge("sched.job.throughput", job=job.job_id).set(throughput)
        self._log("finish", job, f"throughput={throughput:.3f} batches/s")
        self._count("completed")

    # ------------------------------------------------------------------ #
    # policy primitives

    def free_count(self) -> int:
        return len(self.occupancy.free)

    def running_jobs(self) -> list[Job]:
        return sorted(self.running, key=lambda j: j.job_id)

    def queued_jobs(self) -> list[Job]:
        return sorted(self.queue, key=lambda j: (j.spec.submit_time, j.job_id))

    def plan_chains(
        self, job: Job, n_chains: int, extra=()
    ) -> list[ChainPlan] | None:
        """Plan ``n_chains`` chains for ``job`` on the fastest free
        devices (plus the hypothetical ``extra`` ones), or None if they
        don't fit (devices or memory)."""
        s = job.spec
        need = n_chains * s.num_stages
        pool = self.occupancy.free
        if extra:
            pool = sorted(set(pool).union(extra))
        ranked = self.planner.rank_devices(pool)
        if n_chains < 1 or len(ranked) < need:
            return None
        plans = []
        for c in range(n_chains):
            # grants keep the planner's rank order (fastest and biggest
            # memory first) — stage footprints decrease with depth, so
            # this pairs heavy stages with big devices exactly the way
            # best_case_fits probed at submit; sorting by id here made
            # chains infeasible that the feasibility check had accepted,
            # starving the job forever
            grant = tuple(ranked[c * s.num_stages : (c + 1) * s.num_stages])
            plan = self.planner.plan_chain(
                s.family, s.num_stages, s.num_micro, grant, with_reference=(c == 0)
            )
            if not plan.fits:
                return None
            plans.append(plan)
        return plans

    def would_fit(self, job: Job, n_chains: int, victims=()) -> bool:
        """Dry-run admission: would ``n_chains`` chains of ``job`` plan
        cleanly — device count *and* per-device memory — on the free
        devices plus those held by ``victims``?  Preemptive policies
        must prove this before evicting anyone: freeing devices by count
        alone can evict jobs whose capacities still cannot host the
        entrant, which re-queues the victims and livelocks."""
        extra = [d for v in victims for d in v.devices]
        return self.plan_chains(job, n_chains, extra=extra) is not None

    def admit(self, job: Job, n_chains: int) -> bool:
        """Admit (or resume) ``job`` at ``n_chains`` pipeline chains."""
        plans = self.plan_chains(job, n_chains)
        if plans is None:
            return False
        resumed = job.state == JobState.PREEMPTED
        wait_since = job.preempted_at if resumed else job.spec.submit_time
        job.transition(JobState.ADMITTED)
        if job.admitted_at is None:
            job.admitted_at = self.now
        for plan in plans:
            self.occupancy.claim(plan.devices, job.job_id)
            job.admission_audit.append((plan.footprints, plan.caps))
        job.chains = plans
        job.transition(JobState.RUNNING)
        self.queue.remove(job)
        self.running.append(job)
        self._update_rate(job)
        job.trajectory.append(
            (self.now, "resume" if resumed else "admit", n_chains)
        )
        wait = self.now - wait_since
        job.waits.append(wait)
        self.registry.histogram("sched.queue_wait", buckets=WAIT_BUCKETS).observe(wait)
        kind = "resume" if resumed else "admit"
        self._log(
            kind,
            job,
            f"n={n_chains} devices={self._grant_label(plans)} wait={wait:.6f}s",
        )
        self._count("resumed" if resumed else "admitted")
        return True

    def grow(self, job: Job) -> bool:
        """Add one pipeline chain to a running job (elastic backfill,
        the scheduler-level ``add_model`` lever)."""
        s = job.spec
        if job.state != JobState.RUNNING or job.num_pipelines >= s.max_pipelines:
            return False
        ranked = self.planner.rank_devices(self.occupancy.free)
        if len(ranked) < s.num_stages:
            return False
        grant = tuple(ranked[: s.num_stages])  # rank order, as plan_chains
        plan = self.planner.plan_chain(
            s.family, s.num_stages, s.num_micro, grant, with_reference=False
        )
        if not plan.fits:
            return False
        job.transition(JobState.RESIZING)
        self.occupancy.claim(plan.devices, job.job_id)
        job.chains.append(plan)
        job.admission_audit.append((plan.footprints, plan.caps))
        job.transition(JobState.RUNNING)
        self._update_rate(job)
        job.trajectory.append((self.now, "grow", job.num_pipelines))
        self.registry.counter("sched.resize", direction="grow").inc()
        self._log("grow", job, f"n={job.num_pipelines} devices={plan.devices}")
        return True

    def shrink(self, job: Job) -> bool:
        """Drop a running job's last chain (elastic shrink-to-admit,
        the scheduler-level ``resize`` lever)."""
        if job.state != JobState.RUNNING:
            return False
        if job.num_pipelines <= max(1, job.spec.min_pipelines):
            return False
        job.transition(JobState.RESIZING)
        plan = job.chains.pop()
        self.occupancy.release(plan.devices, job.job_id)
        job.transition(JobState.RUNNING)
        self._update_rate(job)
        job.trajectory.append((self.now, "shrink", job.num_pipelines))
        self.registry.counter("sched.resize", direction="shrink").inc()
        self._log("shrink", job, f"n={job.num_pipelines} freed={plan.devices}")
        return True

    def preempt(self, job: Job) -> bool:
        """Checkpoint and evict a running job (format-v2 checkpoint; the
        numerics cross-check replays it through save/load_trainer)."""
        if job.state != JobState.RUNNING:
            return False
        n_before = job.num_pipelines
        job.transition(JobState.PREEMPTED)
        checkpoint = f"ckpt-v2-{job.job_id}-{job.preemptions}"
        job.checkpoints.append(checkpoint)
        job.preemptions += 1
        job.preempted_at = self.now
        self._release_chains(job)
        job.rate = 0.0
        self.running.remove(job)
        self.queue.append(job)
        job.trajectory.append((self.now, "preempt", n_before))
        self._log("preempt", job, f"n_was={n_before} checkpoint={checkpoint}")
        self._count("preempted")
        return True

    # ------------------------------------------------------------------ #

    def _release_chains(self, job: Job) -> None:
        for plan in job.chains:
            self.occupancy.release(plan.devices, job.job_id)
        job.chains = []

    def _update_rate(self, job: Job) -> None:
        # rounds synchronize across chains: one iteration trains one
        # batch per chain and lasts as long as the slowest chain
        if not job.chains:
            job.rate = 0.0
            return
        slowest = max(plan.batch_time for plan in job.chains)
        job.rate = len(job.chains) / slowest

    def _grant_label(self, plans: list[ChainPlan]) -> str:
        return "[" + "|".join(
            ",".join(str(d) for d in plan.devices) for plan in plans
        ) + "]"

    def _log(self, kind: str, job: Job, detail: str) -> None:
        self.log.append(
            f"[t={self.now:12.6f}] {kind:7s} job={job.job_id} {detail}"
        )

    def _count(self, event: str) -> None:
        self.registry.counter("sched.jobs", event=event).inc()

    def _finalize(self) -> SchedResult:
        if self.occupancy.owner:
            raise SchedulerError(
                f"devices still owned at end of run: {self.occupancy.owner}"
            )
        makespan = self.now
        utilization = (
            self.busy_device_seconds / (self.spec.num_devices * makespan)
            if makespan > 0
            else 0.0
        )
        self.registry.gauge("sched.cluster_util").set(utilization)
        self.registry.gauge("sched.makespan").set(makespan)
        self.registry.counter("sched.busy_device_seconds").inc(
            self.busy_device_seconds
        )
        self._log_summary(makespan, utilization)
        return SchedResult(
            scenario=self.scenario,
            policy=self.policy.name,
            seed=self.seed,
            spec=self.spec,
            jobs=self.jobs,
            log=self.log,
            makespan=makespan,
            utilization=utilization,
            busy_device_seconds=self.busy_device_seconds,
            registry=self.registry,
        )

    def _log_summary(self, makespan: float, utilization: float) -> None:
        done = sum(1 for j in self.jobs if j.state == JobState.DONE)
        rejected = sum(1 for j in self.jobs if j.state == JobState.REJECTED)
        self.log.append(
            f"[t={self.now:12.6f}] end     policy={self.policy.name} "
            f"done={done} rejected={rejected} makespan={makespan:.6f}s "
            f"util={utilization:.4f}"
        )
