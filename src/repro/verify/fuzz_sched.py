"""Seeded fuzzing of the multi-job scheduler (the job-arrival axis).

The ``sched-fuzz`` axis of the :mod:`repro.verify.fuzz` protocol draws
randomized *cluster scheduling* configurations: cluster shape, job
count, arrival intensity, policy, and a memory regime ("roomy" fits
everything; "tight" rejects the wide jobs; "uneven" gives half the
devices small capacities so grants become placement-sensitive).  Each
case runs the deterministic scheduler end to end and audits the
control-plane invariants:

* **no starvation** — every submitted job reaches a terminal state, and
  every non-rejected job completes with all its work accounted;
* **memory caps** — every chain ever granted (admission, resume, grow)
  had Eq.-8 footprints within its devices' capacities, and every
  rejection is genuine (the chain really doesn't fit the empty cluster);
* **device-time conservation** — the cluster's busy-device-seconds
  integral equals the sum of per-job device-seconds;
* **occupancy hygiene** — no device double-granted, none owned at the
  end (scheduler-internal: a :class:`SchedulerError` the protocol
  reports as a ``raised`` problem);
* **determinism** — the same config re-run produces a byte-identical
  event log.

``repro verify --sched-fuzz N`` runs N cases through the policy rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.seeding import derive_rng

if TYPE_CHECKING:
    from repro.verify.fuzz import Finding

__all__ = ["SchedFuzzConfig", "sched_fuzz_configs", "audit_sched"]

MIB = 2**20
GIB = 2**30

_POLICY_ROTATION = ("fifo", "priority", "fair")
_MEMORY_REGIMES = ("roomy", "tight", "uneven")


@dataclass(frozen=True)
class SchedFuzzConfig:
    """One randomized scheduler configuration."""

    index: int
    seed: int
    policy: str
    nodes: int
    gpus_per_node: int
    num_jobs: int
    mean_interarrival: float
    memory_regime: str  # "roomy" | "tight" | "uneven"
    slow_devices: bool  # half-speed second node

    def describe(self) -> str:
        return (
            f"sched[{self.index}] policy={self.policy} "
            f"cluster={self.nodes}x{self.gpus_per_node} jobs={self.num_jobs} "
            f"ia={self.mean_interarrival:.2f}s mem={self.memory_regime}"
            f"{' slow' if self.slow_devices else ''}"
        )


def sched_fuzz_configs(count: int, seed: int = 0) -> list[SchedFuzzConfig]:
    """Draw ``count`` configurations from the seeded stream."""
    rng = derive_rng("verify-sched-fuzz", count, seed=seed)
    configs = []
    for i in range(count):
        configs.append(
            SchedFuzzConfig(
                index=i,
                seed=seed,
                policy=_POLICY_ROTATION[i % len(_POLICY_ROTATION)],
                nodes=int(rng.integers(2, 5)),
                gpus_per_node=int(rng.integers(1, 3)),
                num_jobs=int(rng.integers(3, 9)),
                mean_interarrival=float(rng.uniform(0.3, 3.0)),
                memory_regime=_MEMORY_REGIMES[int(rng.integers(0, len(_MEMORY_REGIMES)))],
                slow_devices=bool(rng.integers(0, 2)),
            )
        )
    return configs


def _scenario_for(cfg: SchedFuzzConfig):
    from repro.sched.workload import SchedScenario

    num_devices = cfg.nodes * cfg.gpus_per_node
    memory = 2 * GIB
    device_memory = None
    if cfg.memory_regime == "tight":
        memory = 192 * MIB  # rejects gnmt chains, admits bert/awd shapes
    elif cfg.memory_regime == "uneven":
        # odd devices get a quarter of the capacity: grants become
        # placement-sensitive without making whole families infeasible
        device_memory = tuple(
            2 * GIB if d % 2 == 0 else 512 * MIB for d in range(num_devices)
        )
    device_speed = None
    if cfg.slow_devices and cfg.nodes >= 2:
        speeds = [1.0] * num_devices
        for d in range(cfg.gpus_per_node):  # the last node runs at half speed
            speeds[num_devices - 1 - d] = 0.5
        device_speed = tuple(speeds)
    scenario = SchedScenario(
        name=f"fuzz-{cfg.index}",
        description="fuzzer-generated",
        nodes=cfg.nodes,
        gpus_per_node=cfg.gpus_per_node,
        num_jobs=cfg.num_jobs,
        mean_interarrival=cfg.mean_interarrival,
        stage_options=(2, 3) if num_devices >= 3 else (2,),
        memory_bytes=memory,
        device_speed=device_speed,
    )
    spec = scenario.cluster_spec()
    if device_memory is not None:
        import dataclasses

        spec = dataclasses.replace(spec, device_memory_bytes=device_memory)
    return scenario, spec


def _run_once(cfg: SchedFuzzConfig):
    from repro.obs.registry import MetricRegistry
    from repro.sched.scheduler import ClusterScheduler
    from repro.sched.workload import generate_jobs

    scenario, spec = _scenario_for(cfg)
    jobs = generate_jobs(scenario, cfg.seed + cfg.index)
    scheduler = ClusterScheduler(
        spec,
        jobs,
        cfg.policy,
        registry=MetricRegistry(),
        scenario=scenario.name,
        seed=cfg.seed,
    )
    return scheduler, scheduler.run()


def audit_sched(cfg: SchedFuzzConfig, out: Finding) -> None:
    """Run one configuration and audit every invariant."""
    from repro.sched.job import JobState

    scheduler, result = _run_once(cfg)
    reg = result.registry
    out.tallies.update(
        completed=len(result.completed),
        rejected=len(result.rejected),
        preemptions=int(reg.value("sched.jobs", event="preempted")),
        resizes=int(
            reg.value("sched.resize", direction="grow")
            + reg.value("sched.resize", direction="shrink")
        ),
    )

    # --- no starvation ------------------------------------------------- #
    for job in result.jobs:
        if job.state not in (JobState.DONE, JobState.REJECTED):
            out.problems.append(f"job {job.job_id} starved in state {job.state}")
        if job.state == JobState.DONE:
            if job.batches_done != job.spec.total_batches:
                out.problems.append(
                    f"job {job.job_id} done with {job.batches_done} of "
                    f"{job.spec.total_batches} batches"
                )
            if not job.waits or any(w < 0 for w in job.waits):
                out.problems.append(f"job {job.job_id} has bad waits {job.waits}")

    # --- memory caps ---------------------------------------------------- #
    for job in result.jobs:
        for footprints, caps in job.admission_audit:
            for k, (f, cap) in enumerate(zip(footprints, caps)):
                if f > cap:
                    out.problems.append(
                        f"job {job.job_id} admitted over capacity: stage {k} "
                        f"needs {f / MIB:.1f} MiB of {cap / MIB:.1f} MiB"
                    )
        if job.state == JobState.REJECTED:
            s = job.spec
            if scheduler.planner.best_case_fits(s.family, s.num_stages, s.num_micro):
                out.problems.append(
                    f"job {job.job_id} rejected although a chain fits the "
                    f"empty cluster"
                )

    # --- device-time conservation --------------------------------------- #
    per_job = sum(j.device_seconds for j in result.jobs)
    busy = result.busy_device_seconds
    if abs(per_job - busy) > 1e-6 * max(busy, 1.0):
        out.problems.append(
            f"device-time not conserved: jobs hold {per_job:.9f} "
            f"device-s, cluster busy {busy:.9f} device-s"
        )

    # --- determinism ----------------------------------------------------- #
    _, again = _run_once(cfg)
    if again.log_text() != result.log_text():
        out.problems.append("event log differs between identical runs")
