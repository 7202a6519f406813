"""Differential-testing & schedule-verification subsystem.

Coordinated safety nets over the schedule / executor / trainer
stack (see ``docs/verification.md``):

* :mod:`repro.verify.oracle` — a sequential oracle with explicit
  weight-version replay, differentially tested against the pipelined
  numeric trainer and the elastic-averaging framework;
* :mod:`repro.verify.invariants` — a static sanitizer for any
  :class:`~repro.schedules.base.Schedule`'s op streams plus the analytic
  memory model;
* :mod:`repro.verify.fuzz` — one seeded draw -> audit protocol over
  two fuzz axes (:data:`~repro.verify.fuzz.AXES`), each case audited
  into a :class:`~repro.verify.fuzz.Finding`:

  - ``fuzz`` drives the event simulator with a trace causality checker
    and an OOM-iff-predicted cross-check;
  - ``sched-fuzz`` (:mod:`repro.verify.fuzz_sched`) drives the
    :mod:`repro.sched` multi-job scheduler and audits admission, memory
    caps, device-time conservation, and determinism.

``repro verify`` on the CLI runs all of them.
"""

from repro.verify.invariants import (
    CorruptedSchedule,
    MemoryPrediction,
    ScheduleViolation,
    Violation,
    assert_schedule_valid,
    check_deadlock_free,
    check_schedule,
    check_stream,
    corrupt_schedule,
    predict_peak_memory,
)
from repro.verify.oracle import (
    VERIFIED_SCHEDULES,
    DifferentialReport,
    ElasticOracle,
    differential_check,
    elastic_equivalence_check,
    make_toy_model,
    run_async_oracle,
    run_differential_sweep,
    run_sync_oracle,
    toy_batch,
)
from repro.verify.fuzz import (
    AXES,
    SCHED_AXIS,
    SIM_AXIS,
    Axis,
    Finding,
    FuzzConfig,
    check_trace_causality,
    fuzz_configs,
    inject_causality_case,
    inject_causality_violation,
    run_axis,
    run_case,
)
from repro.verify.fuzz_sched import SchedFuzzConfig, sched_fuzz_configs

__all__ = [
    "Violation",
    "ScheduleViolation",
    "check_stream",
    "check_schedule",
    "check_deadlock_free",
    "assert_schedule_valid",
    "predict_peak_memory",
    "MemoryPrediction",
    "corrupt_schedule",
    "CorruptedSchedule",
    "VERIFIED_SCHEDULES",
    "DifferentialReport",
    "ElasticOracle",
    "differential_check",
    "elastic_equivalence_check",
    "run_differential_sweep",
    "run_sync_oracle",
    "run_async_oracle",
    "make_toy_model",
    "toy_batch",
    "Axis",
    "AXES",
    "SIM_AXIS",
    "SCHED_AXIS",
    "Finding",
    "run_axis",
    "run_case",
    "FuzzConfig",
    "fuzz_configs",
    "check_trace_causality",
    "inject_causality_case",
    "inject_causality_violation",
    "SchedFuzzConfig",
    "sched_fuzz_configs",
]
