"""Figure 17: schedule ablation — AFAB vs 1F1B vs 1F1B+advance-FP.

Reports per workload: training time per iteration, last-GPU idle time
(17a), peak memory (17b) and, for BERT, the per-GPU memory profile (17c).
Run at N=1: with parallel pipelines active, one pipeline's bubbles absorb
the other's communication exposure and the schedules converge — an
observation we record in EXPERIMENTS.md (the paper does not state the N
used for this ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.simcfg import calibration_for
from repro.schedules import AFABSchedule, AdvanceFPSchedule, OneFOneBSchedule

__all__ = ["run_fig17", "Fig17Row"]

MIB = 2**20

#: per-workload M for the ablation (the AvgPipe-tuned micro-batch counts)
ABLATION_M = {"gnmt": 32, "bert": 16, "awd": 1}


@dataclass
class Fig17Row:
    """One (workload, schedule) cell of the Figure-17 ablation."""
    workload: str
    schedule: str
    iter_time: float | None
    last_gpu_idle: float | None
    peak_memory_mib: float | None
    per_gpu_memory_mib: tuple[float, ...] | None
    oom: bool = False


def run_fig17(workloads: tuple[str, ...] = ("gnmt", "bert", "awd"), advance: int = 4) -> dict:
    """Regenerate the Figure-17 schedule ablation at N=1."""
    rows: list[Fig17Row] = []
    for wl in workloads:
        cal = calibration_for(wl)
        m = ABLATION_M[wl]
        adv = min(advance, m)
        for label, sched in (
            ("AFAB", AFABSchedule()),
            ("1F1B", OneFOneBSchedule(versions=1)),
            (f"advance-FP({adv})", AdvanceFPSchedule(adv)),
        ):
            res = cal.profiler(sched).run_setting(m, 1, iterations=3)
            if res.oom is not None:
                rows.append(Fig17Row(wl, label, None, None, None, None, oom=True))
                continue
            rows.append(
                Fig17Row(
                    wl,
                    label,
                    res.batch_time,
                    res.last_device_idle,
                    max(res.peak_memory) / MIB,
                    tuple(p / MIB for p in res.peak_memory),
                )
            )
    return {"rows": rows}
