"""Figures 18 & 19: tuning cost and tuned training time.

Four strategies per workload:
  traversal   — try every (M, N) setting (ground truth, expensive),
  profiling   — the paper's method (one short profile + Equations 2-8),
  max-num     — micro-batch size one, then as many pipelines as fit,
  max-size    — one micro-batch per batch, then pipelines.

Figure 18 compares tuning cost (simulated seconds of measurement);
Figure 19 compares the chosen setting's measured per-batch time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.simcfg import calibration_for
from repro.core.tuner import GuidelineTuner, ProfilingTuner, TraversalTuner, TuningOutcome
from repro.schedules import AdvanceFPSchedule

__all__ = [
    "run_fig18",
    "run_fig19",
    "run_tuning",
    "TuningRow",
]


@dataclass
class TuningRow:
    """One (workload, method) cell shared by Figures 18 and 19."""
    workload: str
    method: str
    m: int
    n: int
    tuning_cost: float
    measured_batch_time: float  # per iteration at the chosen setting
    time_per_batch: float


@functools.lru_cache(maxsize=None)  # Figures 18 and 19 share one sweep
def run_tuning(workloads: tuple[str, ...] = ("gnmt", "bert", "awd")) -> dict:
    """Run all four tuning strategies on every workload (cached)."""
    rows: list[TuningRow] = []
    for wl in workloads:
        cal = calibration_for(wl)
        limit = float(cal.memory_capacity_bytes)
        n_candidates = [1, 2, 3, 4]

        def add(outcome: TuningOutcome) -> None:
            rows.append(
                TuningRow(
                    wl,
                    outcome.method,
                    outcome.m,
                    outcome.n,
                    outcome.tuning_cost,
                    outcome.measured_batch_time,
                    outcome.measured_batch_time / max(outcome.n, 1),
                )
            )

        add(TraversalTuner(cal.profiler(AdvanceFPSchedule(2)), limit).tune(
            n_candidates=n_candidates))
        add(ProfilingTuner(cal.profiler(AdvanceFPSchedule(2)), limit).tune(
            n_candidates=n_candidates))
        guide = GuidelineTuner(cal.profiler(AdvanceFPSchedule(2)), limit)
        add(guide.tune("max-num", n_candidates=n_candidates))
        add(guide.tune("max-size", n_candidates=n_candidates))
    return {"rows": rows}


def run_fig18(workloads: tuple[str, ...] = ("gnmt", "bert", "awd")) -> dict:
    """Figure 18's view of the tuning sweep: measurement cost."""
    data = run_tuning(workloads)
    return {
        "rows": [r for r in data["rows"] if r.method in ("traversal", "profiling")],
        "all": data["rows"],
    }


def run_fig19(workloads: tuple[str, ...] = ("gnmt", "bert", "awd")) -> dict:
    """Figure 19's view of the tuning sweep: chosen-setting quality."""
    return run_tuning(workloads)
