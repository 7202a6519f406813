"""The AvgPipe system facade (Figure 10).

Wires the five architecture components end to end:

1. **partitioner** — PipeDream DP over the model's layer costs,
2. **profiler**  — one short simulated run at a large-M / small-N setting,
3. **predictor** — Equations 2-8 over the (M, N) candidate grid,
4. **scheduler** — 1F1B with adaptive advance forward propagation
   (Algorithm 1) at the chosen degrees,
5. **runtime**   — a :class:`PipelineSimRunner` for performance numbers
   and an :class:`AvgPipeTrainer` for real training.

``AvgPipe.plan()`` is the user entry point: give it a workload and a
memory budget, get back the tuned configuration with its predicted and
simulated performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predictor import Prediction
from repro.core.profiler import Profiler
from repro.core.simcfg import SimCalibration, calibration_for
from repro.core.trainer import AvgPipeTrainer
from repro.core.tuner import ProfilingTuner, default_m_candidates
from repro.graph.partitioner import Partition
from repro.models.registry import WorkloadSpec, build_workload
from repro.schedules.adaptive import AdaptiveAdvanceController
from repro.schedules.base import AdvanceFPSchedule
from repro.schedules.executor import SimIterationResult

__all__ = ["AvgPipe", "AvgPipePlan"]


@dataclass
class AvgPipePlan:
    """A tuned AvgPipe configuration plus its predicted performance."""
    workload: str
    partition: Partition
    num_micro: int
    num_pipelines: int
    advance: int
    memory_limit_bytes: float
    prediction: Prediction | None
    tuning_cost: float
    #: the tuner's simulation of this setting (advance 0 only), which
    #: :meth:`AvgPipe.simulate` returns instead of running it again
    measured_run: SimIterationResult | None = field(
        default=None, init=False, repr=False, compare=False
    )


class AvgPipe:
    """End-to-end AvgPipe over one of the paper's workloads."""

    def __init__(
        self,
        workload: str,
        calibration: SimCalibration | None = None,
        spec: WorkloadSpec | None = None,
    ) -> None:
        self.spec = spec or build_workload(workload)
        self.calibration = calibration or calibration_for(workload)
        self.layer_costs = self.calibration.layer_costs(self.spec)
        self.partition = self.calibration.partition(self.layer_costs)

    # ------------------------------------------------------------------ #

    def _profiler(self, schedule) -> Profiler:
        return self.calibration.profiler(
            schedule, costs=self.layer_costs, partition=self.partition
        )

    def plan(
        self,
        memory_limit_bytes: float | None = None,
        n_candidates: list[int] | None = None,
        tune_advance: bool = True,
    ) -> AvgPipePlan:
        """Tune (M, N) with the profiling method, then adapt ``advance``."""
        limit = memory_limit_bytes or self.calibration.memory_capacity_bytes
        # Phase 1: degrees via the profiling tuner on the schedule AvgPipe
        # actually runs (1F1B order, one weight version) so the profiled
        # memory reflects the real runtime.
        tuner = ProfilingTuner(self._profiler(AdvanceFPSchedule(advance=0)), limit)
        outcome = tuner.tune(
            m_candidates=default_m_candidates(self.calibration.batch_size),
            n_candidates=n_candidates or [1, 2, 3, 4],
        )
        # Phase 2: Algorithm 1 — grow advance while faster and in memory.
        advance = 0
        if tune_advance and outcome.m > 1:
            controller = AdaptiveAdvanceController(
                num_micro=outcome.m, memory_limit_bytes=limit
            )

            def measure_at(adv: int) -> tuple[float, float]:
                if adv == 0:
                    # The tuner already ran the winner on this schedule.
                    result = outcome.measured_run
                else:
                    prof = self._profiler(AdvanceFPSchedule(advance=adv))
                    result = prof.run_setting(outcome.m, outcome.n, iterations=2)
                if result.oom is not None:
                    return float("inf"), float("inf")
                return result.batch_time, float(max(result.peak_memory))

            advance = controller.tune(measure_at)
        prediction = None
        for p in outcome.details:
            if p.m == outcome.m and p.n == outcome.n:
                prediction = p
                break
        plan = AvgPipePlan(
            workload=self.spec.name,
            partition=self.partition,
            num_micro=outcome.m,
            num_pipelines=outcome.n,
            advance=advance,
            memory_limit_bytes=limit,
            prediction=prediction,
            tuning_cost=outcome.tuning_cost,
        )
        if advance == 0:
            plan.measured_run = outcome.measured_run
        return plan

    # ------------------------------------------------------------------ #

    def simulate(self, plan: AvgPipePlan, iterations: int = 3, **kwargs) -> SimIterationResult:
        """Run the planned configuration on a fresh simulated cluster.

        An advance-0 plan was already simulated by the tuner; a call that
        asks for exactly that run (same iterations, no other options)
        returns it instead of simulating it again.
        """
        run = plan.measured_run
        if (
            run is not None
            and not kwargs
            and run.iterations == iterations
            and (run.num_micro, run.num_pipelines, plan.advance)
            == (plan.num_micro, plan.num_pipelines, 0)
        ):
            return run
        return self.simulate_config(
            plan.num_micro, plan.num_pipelines, plan.advance, iterations=iterations, **kwargs
        )

    def simulate_config(
        self, num_micro: int, num_pipelines: int, advance: int = 0,
        iterations: int = 3, **kwargs,
    ) -> SimIterationResult:
        """Simulate an explicit (M, N, advance) configuration."""
        profiler = self._profiler(AdvanceFPSchedule(advance=advance))
        return profiler.run_setting(num_micro, num_pipelines, iterations=iterations, **kwargs)

    def trainer(self, plan: AvgPipePlan, seed: int = 0, max_epochs: int = 40) -> AvgPipeTrainer:
        """Real-numerics trainer at the planned parallelism degrees."""
        return AvgPipeTrainer(
            self.spec,
            seed=seed,
            max_epochs=max_epochs,
            num_pipelines=plan.num_pipelines,
        )
