"""AvgPipe core: the paper's primary contribution.

* :mod:`elastic` — the elastic-averaging-based framework (§3.2): N
  parallel models, a reference model, an elastic α-pull, optimizer-agnostic.
  Its :meth:`~elastic.ElasticAveragingFramework.resize` (shrink, α
  renormalized) and :meth:`~elastic.ElasticAveragingFramework.add_model`
  (grow, seeded from the reference) are the elastic levers both the
  resilience policies and the :mod:`repro.sched` multi-job scheduler
  drive at runtime.
* :mod:`messages` — asynchronous update queues between parallel pipelines
  and the reference process (§3.2 step 3).
* :mod:`trainer` — real-numerics training loops for AvgPipe and for every
  baseline's weight-update semantics (sync, stale multi-version, 2BW).
* :mod:`profiler` / :mod:`predictor` / :mod:`tuner` — the
  profiling-based parallelism-degree tuning of §5 (Equations 1-8).
* :mod:`simcfg` — per-workload simulator calibrations.
* :mod:`avgpipe` — the system facade wiring partitioner -> profiler ->
  predictor -> scheduler -> runtime (Figure 10).
"""

from repro.core.messages import MessageQueue
from repro.core.elastic import ElasticAveragingFramework
from repro.core.trainer import (
    AvgPipeTrainer,
    PipeDream2BWTrainer,
    PipeDreamTrainer,
    SyncTrainer,
    TrainResult,
)
from repro.core.profiler import Profile, Profiler
from repro.core.predictor import Prediction, Predictor
from repro.core.tuner import (
    GuidelineTuner,
    ProfilingTuner,
    TraversalTuner,
    TuningOutcome,
    plan_for_spec,
)
from repro.core.simcfg import SIM_CALIBRATIONS, SimCalibration
from repro.core.avgpipe import AvgPipe, AvgPipePlan
from repro.core.checkpoint import CheckpointError, load_trainer, save_trainer
from repro.core.pipeline import PipelinedRunner, StageRuntime

__all__ = [
    "MessageQueue",
    "ElasticAveragingFramework",
    "SyncTrainer",
    "PipeDreamTrainer",
    "PipeDream2BWTrainer",
    "AvgPipeTrainer",
    "TrainResult",
    "Profile",
    "Profiler",
    "Prediction",
    "Predictor",
    "ProfilingTuner",
    "TraversalTuner",
    "GuidelineTuner",
    "TuningOutcome",
    "plan_for_spec",
    "SimCalibration",
    "SIM_CALIBRATIONS",
    "AvgPipe",
    "AvgPipePlan",
    "CheckpointError",
    "save_trainer",
    "load_trainer",
    "PipelinedRunner",
    "StageRuntime",
]
