"""Multi-tenant elastic training service on the simulated cluster.

The paper makes a job's parallel-pipeline count N a runtime knob
(§3.2's ``resize``/``add_model``); this package turns that knob into a
*capacity* tool: many jobs share one cluster, each pipeline chain is
planned with the tuner (:func:`repro.core.plan_for_spec` + the Eq. 1-8
predictor), admission control proves Eq.-8 footprints fit per-device
capacities, and the elastic policies grow/shrink running jobs to absorb
arrivals and backfill departures.  See ``docs/scheduling.md``.

* :mod:`job` — job spec + validated lifecycle state machine;
* :mod:`workload` — seeded arrival-process scenario generator;
* :mod:`service` — per-chain planning, service times, admission checks;
* :mod:`policies` — FIFO / priority-preemptive / weighted fair-share;
* :mod:`scheduler` — the deterministic event loop and occupancy ledger;
* :mod:`report` — per-job tables and the FIFO-vs-elastic verdict;
* :mod:`crosscheck` — N-trajectory replay on a real trainer, checked
  against the elastic oracle.
"""

from repro.sched.job import Job, JobSpec, JobState, JobStateError
from repro.sched.workload import (
    SCHED_SCENARIOS,
    SchedScenario,
    build_scenario,
    generate_jobs,
)
from repro.sched.service import ChainPlan, JobPlanner
from repro.sched.policies import (
    POLICIES,
    FairSharePolicy,
    FifoPolicy,
    PriorityPolicy,
    SchedPolicy,
    make_policy,
)
from repro.sched.scheduler import ClusterScheduler, SchedResult, SchedulerError
from repro.sched.report import (
    SchedVerdict,
    render_compare,
    render_jobs,
    render_report,
    render_summary,
)
from repro.sched.crosscheck import CrosscheckResult, crosscheck_job, crosscheck_result

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "JobStateError",
    "SchedScenario",
    "SCHED_SCENARIOS",
    "build_scenario",
    "generate_jobs",
    "ChainPlan",
    "JobPlanner",
    "SchedPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "FairSharePolicy",
    "POLICIES",
    "make_policy",
    "ClusterScheduler",
    "SchedResult",
    "SchedulerError",
    "SchedVerdict",
    "render_jobs",
    "render_summary",
    "render_compare",
    "render_report",
    "CrosscheckResult",
    "crosscheck_job",
    "crosscheck_result",
]


def run_scenario(scenario: str, policy: str, seed: int = 0) -> SchedResult:
    """Convenience: build the canned scenario and run one policy."""
    from repro.obs.registry import MetricRegistry

    spec, jobs = build_scenario(scenario, seed)
    scheduler = ClusterScheduler(
        spec,
        jobs,
        policy,
        registry=MetricRegistry(),
        scenario=scenario,
        seed=seed,
    )
    return scheduler.run()


__all__.append("run_scenario")
