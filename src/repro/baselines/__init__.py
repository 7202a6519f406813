"""Baseline systems (§7.1's five comparison points).

Each baseline couples a *timing* model (a schedule + runner on the
simulated cluster) with an *update-semantics* model (a real-numerics
trainer), matching how the paper reimplements all baselines on one
runtime engine:

=================  ======================  ==============================
system             timing                  update semantics
=================  ======================  ==============================
PyTorch (DDP)      DataParallelSimRunner   SyncTrainer
GPipe              AFAB schedule           SyncTrainer
PipeDream          1F1B async, K-k vers.   PipeDreamTrainer (stashing)
PipeDream-2BW      1F1B, 2 versions        PipeDream2BWTrainer (lag 1)
Dapple             1F1B, sync              SyncTrainer
AvgPipe            advance-FP, N pipes     AvgPipeTrainer (elastic avg)
=================  ======================  ==============================
"""

from repro.baselines.systems import (
    BASELINE_SYSTEMS,
    BaselineSystem,
    baseline_by_name,
    simulate_baseline,
    choose_baseline_micro,
)

__all__ = [
    "BaselineSystem",
    "BASELINE_SYSTEMS",
    "baseline_by_name",
    "simulate_baseline",
    "choose_baseline_micro",
]
