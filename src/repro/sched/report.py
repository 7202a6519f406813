"""Run reports and the FIFO-vs-elastic verdict table.

``repro sched`` runs the chosen policy *and* the static FIFO baseline on
the same seeded scenario, then renders:

* a per-job table for each run (family, K, M, N-trajectory, wait,
  runtime, throughput, preemptions, final state);
* a summary per run (makespan, cluster utilization, queue-wait
  quantiles from the ``sched.queue_wait`` histogram);
* the verdict table — utilization, queue-wait p50/p95/p99, mean job
  throughput and makespan side by side, with a PASS/FAIL verdict on the
  acceptance criterion: elastic inter-job resizing must beat static
  FIFO on *both* cluster utilization and queue-wait p95.

All numbers derive from the deterministic simulator clock and the
registry's histogram quantiles, so renderings are byte-stable — the
committed ``sched_smoke.txt`` golden pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.tables import format_table

from repro.sched.scheduler import SchedResult

__all__ = ["SchedVerdict", "render_jobs", "render_summary", "render_compare", "render_report"]


@dataclass
class SchedVerdict:
    """The acceptance comparison between a policy run and the baseline."""

    baseline: SchedResult
    candidate: SchedResult
    crosschecks: list = field(default_factory=list)  # CrosscheckResult rows

    @property
    def util_improved(self) -> bool:
        return self.candidate.utilization > self.baseline.utilization

    @property
    def wait_p95_improved(self) -> bool:
        return (
            self.candidate.queue_wait_summary()["p95"]
            < self.baseline.queue_wait_summary()["p95"]
        )

    @property
    def numerics_clean(self) -> bool:
        return all(c.ok for c in self.crosschecks)

    @property
    def passed(self) -> bool:
        return self.util_improved and self.wait_p95_improved and self.numerics_clean

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "util_improved": self.util_improved,
            "wait_p95_improved": self.wait_p95_improved,
            "numerics_clean": self.numerics_clean,
            "baseline": self.baseline.to_dict(),
            "candidate": self.candidate.to_dict(),
            "crosschecks": [
                {
                    "job_id": c.job_id,
                    "events": c.events,
                    "divergence": c.divergence,
                    "tolerance": c.tolerance,
                    "ok": c.ok,
                }
                for c in self.crosschecks
            ],
        }


def _job_rows(result: SchedResult) -> list[list]:
    rows = []
    for job in result.jobs:
        s = job.spec
        throughput = (
            s.total_batches / job.running_seconds if job.running_seconds > 0 else 0.0
        )
        rows.append(
            [
                job.job_id,
                s.family,
                s.num_stages,
                s.num_micro,
                s.total_batches,
                s.priority,
                job.n_label(),
                "-" if not job.waits else f"{job.queue_wait:.4f}",
                f"{job.running_seconds:.4f}",
                f"{throughput:.2f}",
                job.preemptions,
                job.state,
            ]
        )
    return rows


def render_jobs(result: SchedResult) -> str:
    return format_table(
        ["job", "family", "K", "M", "batches", "prio", "N", "wait (s)",
         "run (s)", "batches/s", "preempts", "state"],
        _job_rows(result),
        title=f"Jobs — scenario={result.scenario} policy={result.policy} "
        f"seed={result.seed}",
    )


def render_summary(result: SchedResult) -> str:
    wait = result.queue_wait_summary()
    lines = [
        f"policy={result.policy}: makespan={result.makespan:.6f}s "
        f"util={result.utilization:.4f} "
        f"busy={result.busy_device_seconds:.4f} device-s",
        f"  queue wait: p50={wait['p50']:.4f}s p95={wait['p95']:.4f}s "
        f"p99={wait['p99']:.4f}s (n={wait['count']})",
        f"  jobs: {len(result.completed)} done, {len(result.rejected)} rejected, "
        f"{int(result.registry.value('sched.jobs', event='preempted'))} preemptions, "
        f"{int(result.registry.value('sched.resize', direction='grow'))} grows, "
        f"{int(result.registry.value('sched.resize', direction='shrink'))} shrinks",
    ]
    return "\n".join(lines) + "\n"


def _mean_throughput(result: SchedResult) -> float:
    hist = result.registry.get("sched.job_throughput")
    return hist.summary()["mean"] if hist is not None else 0.0


def render_compare(verdict: SchedVerdict) -> str:
    base, cand = verdict.baseline, verdict.candidate
    bw, cw = base.queue_wait_summary(), cand.queue_wait_summary()

    def better(flag: bool) -> str:
        return "yes" if flag else "NO"

    rows = [
        ["cluster utilization", f"{base.utilization:.4f}", f"{cand.utilization:.4f}",
         better(verdict.util_improved)],
        ["queue wait p50 (s)", f"{bw['p50']:.4f}", f"{cw['p50']:.4f}",
         better(cw["p50"] <= bw["p50"])],
        ["queue wait p95 (s)", f"{bw['p95']:.4f}", f"{cw['p95']:.4f}",
         better(verdict.wait_p95_improved)],
        ["queue wait p99 (s)", f"{bw['p99']:.4f}", f"{cw['p99']:.4f}",
         better(cw["p99"] <= bw["p99"])],
        ["mean job throughput (batches/s)", f"{_mean_throughput(base):.3f}",
         f"{_mean_throughput(cand):.3f}",
         better(_mean_throughput(cand) >= _mean_throughput(base))],
        ["makespan (s)", f"{base.makespan:.4f}", f"{cand.makespan:.4f}",
         better(cand.makespan <= base.makespan)],
    ]
    return format_table(
        ["metric", base.policy, cand.policy, "improved"],
        rows,
        title=f"Verdict — {cand.policy} vs static {base.policy} "
        f"(scenario={cand.scenario}, seed={cand.seed})",
    )


def render_report(verdict: SchedVerdict) -> str:
    """The full human-readable run report ``repro sched`` prints.

    When the baseline *is* the candidate (``--no-baseline`` or a plain
    FIFO run) there is nothing to compare, so the comparison table and
    the PASS/FAIL verdict — which could only ever read FAIL against
    itself — are skipped in favor of the single run's tables.
    """
    single = verdict.baseline is verdict.candidate
    parts = []
    if not single:
        parts += [render_jobs(verdict.baseline), "", render_summary(verdict.baseline)]
    parts += [render_jobs(verdict.candidate), "", render_summary(verdict.candidate)]
    if not single:
        parts += [render_compare(verdict), ""]
    if verdict.crosschecks:
        rows = [
            [c.job_id, c.events, f"{c.divergence:.2e}", "clean" if c.ok else "DIRTY"]
            for c in verdict.crosschecks
        ]
        parts += [
            format_table(
                ["job", "resize/preempt events", "oracle divergence", "verdict"],
                rows,
                title="Elastic-oracle numerics cross-check "
                "(checkpoint v2 + resize/add_model replay)",
            ),
            "",
        ]
    if single:
        parts.append(
            f"Run complete — policy={verdict.candidate.policy}, no baseline "
            f"comparison requested; numerics "
            f"{'clean' if verdict.numerics_clean else 'DIRTY'}.\n"
        )
        return "\n".join(parts)
    status = "PASS" if verdict.passed else "FAIL"
    detail = (
        f"util {verdict.baseline.utilization:.4f} -> "
        f"{verdict.candidate.utilization:.4f}, "
        f"wait p95 {verdict.baseline.queue_wait_summary()['p95']:.4f}s -> "
        f"{verdict.candidate.queue_wait_summary()['p95']:.4f}s, "
        f"numerics {'clean' if verdict.numerics_clean else 'DIRTY'}"
    )
    parts.append(
        f"Verdict: {status} — elastic {verdict.candidate.policy} vs static "
        f"{verdict.baseline.policy}: {detail}.\n"
    )
    return "\n".join(parts)
