"""Experiment harness: one module per paper figure.

Each ``run_*`` function regenerates the rows of the corresponding figure
(workload x system grids of training time, memory, utilization, epochs,
tuning cost, ...).  The benchmark suite under ``benchmarks/`` calls these,
prints the tables, writes them to ``benchmarks/results/`` and asserts the
paper's qualitative shapes; the examples reuse the same entry points.
"""

from repro.experiments.common import (
    BaselineRun,
    avgpipe_matched_to,
    run_baseline,
    run_all_baselines,
)
from repro.experiments.statistical import statistical_results
from repro.experiments.fig11_training_time import run_fig11
from repro.experiments.fig12_memory import run_fig12
from repro.experiments.fig13_utilization import run_fig13
from repro.experiments.fig14_statistical import run_fig14
from repro.experiments.fig15_batch_sweep import run_fig15
from repro.experiments.fig16_util_curves import run_fig16
from repro.experiments.fig17_schedules import run_fig17
from repro.experiments.fig18_19_tuning import run_fig18, run_fig19
from repro.experiments.fig02_07_timelines import run_fig02, run_fig07
from repro.experiments.hetero_clusters import run_hetero

__all__ = [
    "BaselineRun",
    "run_baseline",
    "run_all_baselines",
    "avgpipe_matched_to",
    "statistical_results",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "run_fig17",
    "run_fig18",
    "run_fig19",
    "run_fig02",
    "run_fig07",
    "run_hetero",
]
