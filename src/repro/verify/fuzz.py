"""One fuzz protocol: seeded draw -> audit over two axes.

Every axis draws configurations from a seeded stream
(:mod:`repro.utils.seeding`), so a fuzz budget is exactly reproducible
from its seed, and audits each one into a :class:`Finding` — a list of
problems plus integer tallies.  :data:`AXES` is the table ``repro
verify`` loops over and :func:`run_axis` the one loop; an audit that
raises becomes a ``raised <Type>: <msg>`` problem on its case.

* ``fuzz`` (this module) — the simulator.  The event engine is where
  races hide: one generator process per (pipeline, stage) walks its op
  stream, and correctness rests on every span starting only after its
  data dependencies completed.  The audit re-derives those dependencies
  from the schedule's op streams and checks them against the *recorded
  trace*, and cross-checks the memory ledger's OOM behaviour against the
  analytic model (:func:`repro.verify.invariants.predict_peak_memory`).
* ``sched-fuzz`` (:mod:`repro.verify.fuzz_sched`) — the multi-job
  scheduler's control-plane invariants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.schedules import (
    AFABSchedule,
    AdvanceFPSchedule,
    OneFOneBSchedule,
    PipeDreamSchedule,
    PipelineSimRunner,
    StageCosts,
    chimera_device_map,
    interleaved_device_map,
)
from repro.schedules.base import Schedule
from repro.sim import ClusterSpec, Simulator, make_cluster
from repro.sim.trace import SpanKind, TraceRecorder, _Span
from repro.utils.seeding import derive_rng
from repro.verify.fuzz_sched import audit_sched, sched_fuzz_configs
from repro.verify.invariants import MemoryPrediction, check_schedule, predict_peak_memory

__all__ = [
    "AXES",
    "Axis",
    "Finding",
    "FuzzConfig",
    "SCHED_AXIS",
    "SIM_AXIS",
    "SimRun",
    "audit_sim",
    "check_trace_causality",
    "fuzz_configs",
    "inject_causality_case",
    "inject_causality_violation",
    "run_axis",
    "run_case",
    "run_config",
]

#: Timestamps are simulator floats; dependencies are honoured when the
#: consumer starts no earlier than the producer finished, up to rounding.
TIME_EPS = 1e-9


@dataclass
class Finding:
    """Outcome of one fuzz case on any axis.

    ``tallies`` holds the axis's integer counters (OOMs, jobs completed,
    records loaded, ...), which :meth:`Axis.summarize` sums per axis.
    """

    config: Any
    problems: list[str] = field(default_factory=list)
    tallies: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------- #
# configuration drawing


@dataclass(frozen=True)
class FuzzConfig:
    """One randomly-drawn simulator configuration."""

    case: int
    schedule: str
    advance: int
    versions: int
    num_stages: int
    num_micro: int
    num_pipelines: int
    placement: str  # "straight" | "chimera" | "interleaved"
    virtual_factor: int
    iterations: int
    memory_regime: str  # "fits" | "oom"
    activation_recompute: bool
    with_reference_model: bool
    seed: int
    #: heterogeneity axis: "none" keeps the legacy uniform cluster
    #: bit-for-bit; "speeds" draws per-device speed multipliers (timing
    #: only), "memory" gives every device its own capacity (the OOM
    #: regime squeezes one victim device below its lower bound instead of
    #: the whole cluster), "both" does both.
    hetero: str = "none"
    device_speed: tuple[float, ...] = ()
    oom_victim: int = 0

    def describe(self) -> str:
        extra = {
            "advance_fp": f"(advance={self.advance})",
            "1f1b": f"(versions={self.versions})",
        }.get(self.schedule, "")
        return (
            f"case {self.case}: {self.schedule}{extra} K={self.num_stages} "
            f"M={self.num_micro} N={self.num_pipelines} {self.placement} "
            f"it={self.iterations} mem={self.memory_regime}"
            + (" recompute" if self.activation_recompute else "")
            + (" +ref" if self.with_reference_model else "")
            + (f" hetero={self.hetero}" if self.hetero != "none" else "")
        )

    def make_schedule(self) -> Schedule:
        if self.schedule == "afab":
            return AFABSchedule()
        if self.schedule == "1f1b":
            return OneFOneBSchedule(versions=self.versions)
        if self.schedule == "advance_fp":
            return AdvanceFPSchedule(advance=self.advance)
        if self.schedule == "pipedream":
            return PipeDreamSchedule()
        raise ValueError(f"unknown schedule {self.schedule!r}")


def fuzz_configs(count: int, seed: int = 0) -> list[FuzzConfig]:
    """Draw ``count`` reproducible configurations from ``seed``."""
    rng = derive_rng("verify-fuzz", count, seed=seed)
    configs = []
    for case in range(count):
        schedule = str(rng.choice(["afab", "1f1b", "advance_fp", "pipedream"]))
        num_stages = int(rng.integers(2, 5))
        num_micro = int(rng.integers(1, 9))
        placement = "straight"
        num_pipelines = int(rng.integers(1, 3))
        virtual_factor = 1
        # PipeDream has no batch barrier and Chimera's geometry is defined
        # for the bidirectional pair, so exotic placements stick to the
        # synchronous schedules.
        if schedule != "pipedream":
            draw = rng.random()
            if draw < 0.2:
                placement, num_pipelines = "chimera", 2
            elif draw < 0.4:
                placement, num_pipelines, virtual_factor = "interleaved", 1, 2
        # Heterogeneity axis (devices == stages in every placement here).
        hetero_draw = rng.random()
        if hetero_draw < 0.20:
            hetero = "speeds"
        elif hetero_draw < 0.35:
            hetero = "memory"
        elif hetero_draw < 0.45:
            hetero = "both"
        else:
            hetero = "none"
        device_speed = ()
        if hetero in ("speeds", "both"):
            device_speed = tuple(
                round(float(s), 2) for s in rng.uniform(0.4, 1.0, num_stages)
            )
        oom_victim = int(rng.integers(0, num_stages))
        configs.append(
            FuzzConfig(
                case=case,
                schedule=schedule,
                advance=int(rng.integers(0, 4)),
                versions=int(rng.choice([1, 2])),
                num_stages=num_stages,
                num_micro=num_micro,
                num_pipelines=num_pipelines,
                placement=placement,
                virtual_factor=virtual_factor,
                iterations=int(rng.integers(1, 3)),
                memory_regime=str(rng.choice(["fits", "fits", "fits", "oom"])),
                activation_recompute=bool(rng.random() < 0.25),
                with_reference_model=bool(rng.random() < 0.5),
                seed=int(rng.integers(0, 2**31 - 1)),
                hetero=hetero,
                device_speed=device_speed,
                oom_victim=oom_victim,
            )
        )
    return configs


# ---------------------------------------------------------------------- #
# building and running the simulated system for one config


def _draw_costs(cfg: FuzzConfig, num_stages: int) -> StageCosts:
    rng = derive_rng("verify-fuzz-costs", cfg.case, seed=cfg.seed)
    return StageCosts(
        fwd_flops=tuple(float(f) for f in rng.uniform(1e6, 8e6, num_stages)),
        act_out_bytes=tuple(float(b) for b in rng.uniform(1e6, 6e6, num_stages)),
        stash_bytes=tuple(float(b) for b in rng.uniform(2e6, 12e6, num_stages)),
        param_bytes=tuple(int(b) for b in rng.uniform(5e5, 4e6, num_stages)),
    )


@dataclass
class SimRun:
    """One fuzz config built and run on the simulator."""

    cfg: FuzzConfig
    runner: PipelineSimRunner
    result: Any
    prediction: MemoryPrediction
    capacity: int | tuple[int, ...]  # per-device on heterogeneous draws
    schedule: Schedule
    num_stages: int

    def causality(self) -> list[str]:
        """Check the recorded trace against the schedule's op streams."""
        cfg = self.cfg
        streams = [
            self.schedule.stage_ops(k, self.num_stages, cfg.num_micro)
            for k in range(self.num_stages)
        ]
        return check_trace_causality(
            self.runner.trace, streams, cfg.num_micro, cfg.iterations, cfg.num_pipelines
        )


def run_config(cfg: FuzzConfig) -> SimRun:
    """Build the simulated cluster + runner for one fuzz config and run it.

    The memory budget is derived from the analytic model so every case
    lands in a *determinate* regime: "fits" sets capacity at the upper
    bound (the run must complete), "oom" strictly below the tightest
    lower bound (the run must OOM) — the iff the acceptance criteria ask
    for, with the indeterminate band between the bounds excluded by
    construction.
    """
    schedule = cfg.make_schedule()
    num_devices = num_stages = cfg.num_stages
    if cfg.placement == "chimera":
        device_map = chimera_device_map(num_devices)
    elif cfg.placement == "interleaved":
        row = interleaved_device_map(num_devices, cfg.virtual_factor)
        device_map = [list(row) for _ in range(cfg.num_pipelines)]
        num_stages = num_devices * cfg.virtual_factor
    else:
        device_map = [list(range(num_devices)) for _ in range(cfg.num_pipelines)]

    costs = _draw_costs(cfg, num_stages)
    prediction = predict_peak_memory(
        schedule,
        costs,
        cfg.num_micro,
        num_devices,
        device_map,
        with_reference_model=cfg.with_reference_model,
        activation_recompute=cfg.activation_recompute,
    )
    if cfg.memory_regime == "fits":
        capacity = max(prediction.upper) + 1
    else:
        capacity = max(prediction.lower) - 1
    capacity = max(capacity, 1)

    # Heterogeneous memory gives every device its own determinate budget:
    # "fits" puts each device just above its upper bound; "oom" squeezes
    # one victim device strictly below its lower bound while the rest fit,
    # so must_oom/must_fit stay decidable per device.
    device_memory: tuple[int, ...] | None = None
    if cfg.hetero in ("memory", "both"):
        if cfg.memory_regime == "fits":
            device_memory = tuple(int(hi) + 1 for hi in prediction.upper)
        else:
            victim = cfg.oom_victim % num_devices
            device_memory = tuple(
                max(int(prediction.lower[d]) - 1, 1)
                if d == victim
                else int(prediction.upper[d]) + 1
                for d in range(num_devices)
            )

    sim = Simulator()
    cluster = make_cluster(
        sim,
        num_devices,
        spec=ClusterSpec(
            nodes=num_devices,
            gpus_per_node=1,
            memory_bytes=int(capacity),
            device_speed=cfg.device_speed or None,
            device_memory_bytes=device_memory,
        ),
    )
    runner = PipelineSimRunner(
        cluster,
        schedule,
        costs,
        num_micro=cfg.num_micro,
        mb_size=4.0,
        num_pipelines=cfg.num_pipelines,
        with_reference_model=cfg.with_reference_model,
        device_map=device_map,
        activation_recompute=cfg.activation_recompute,
    )
    return SimRun(
        cfg=cfg,
        runner=runner,
        result=runner.run(iterations=cfg.iterations),
        prediction=prediction,
        capacity=device_memory if device_memory is not None else int(capacity),
        schedule=schedule,
        num_stages=num_stages,
    )


# ---------------------------------------------------------------------- #
# trace causality


def check_trace_causality(
    trace: TraceRecorder,
    streams: Sequence[Sequence],
    num_micro: int,
    iterations: int,
    num_pipelines: int,
    eps: float = TIME_EPS,
) -> list[str]:
    """Verify every compute span started only after its dependencies ended.

    Dependencies re-derived from the chain topology:

    * F(p, k, mb) after F(p, k-1, mb) — the activation must exist;
    * B(p, k, mb) after F(p, k, mb) — backward needs the local stash;
    * B(p, k, mb) after B(p, k+1, mb) — the gradient must exist (k < K-1);
    * each (p, k) stage process is serial and runs its stream in order.

    ``streams`` is the per-stage op list (``schedule.stage_ops`` output);
    spans are matched by the identity fields the executor records.
    Returns human-readable violation strings (empty = causally sound).
    """
    K = len(streams)
    spans = trace.compute_spans()
    by_id: dict[tuple[int, int, int, SpanKind], _Span] = {}
    problems: list[str] = []
    for s in spans:
        key = (s.pipeline, s.stage, s.micro, s.kind)
        if key in by_id:
            problems.append(
                f"duplicate span p{s.pipeline} stage{s.stage} mb{s.micro} {s.kind.value}"
            )
        by_id[key] = s

    total_mb = iterations * num_micro
    expected = num_pipelines * sum(len(ops) for ops in streams) * iterations
    if len(spans) != expected:
        problems.append(f"expected {expected} compute spans, trace has {len(spans)}")

    def end_of(p: int, k: int, mb: int, kind: SpanKind) -> float | None:
        s = by_id.get((p, k, mb, kind))
        return None if s is None else s.end

    for (p, k, mb, kind), s in by_id.items():
        deps: list[tuple[str, float | None]] = []
        if kind == SpanKind.FWD and k > 0:
            deps.append((f"F(p{p},k{k - 1},mb{mb})", end_of(p, k - 1, mb, SpanKind.FWD)))
        if kind == SpanKind.BWD:
            deps.append((f"F(p{p},k{k},mb{mb})", end_of(p, k, mb, SpanKind.FWD)))
            if k < K - 1:
                deps.append((f"B(p{p},k{k + 1},mb{mb})", end_of(p, k + 1, mb, SpanKind.BWD)))
        for name, dep_end in deps:
            if dep_end is None:
                problems.append(
                    f"{kind.value}(p{p},k{k},mb{mb}) has no recorded dependency {name}"
                )
            elif s.start < dep_end - eps:
                problems.append(
                    f"{kind.value}(p{p},k{k},mb{mb}) starts at {s.start:.6g} "
                    f"before {name} ends at {dep_end:.6g}"
                )

    # Per-stage-process serialization + stream order.
    for p in range(num_pipelines):
        for k in range(K):
            stage_spans = sorted(
                (s for (pp, kk, _, _), s in by_id.items() if pp == p and kk == k),
                key=lambda s: (s.start, s.end),
            )
            expected_order = [
                (op.kind, it * num_micro + op.micro)
                for it in range(iterations)
                for op in streams[k]
            ]
            actual_order = [(s.kind.value, s.micro) for s in stage_spans]
            if actual_order != expected_order and len(actual_order) == len(expected_order):
                problems.append(
                    f"stage (p{p},k{k}) executed out of stream order: {actual_order[:6]}..."
                )
            for a, b in zip(stage_spans, stage_spans[1:]):
                if b.start < a.end - eps:
                    problems.append(
                        f"stage (p{p},k{k}) spans overlap: "
                        f"{a.kind.value}(mb{a.micro}) [{a.start:.6g},{a.end:.6g}] and "
                        f"{b.kind.value}(mb{b.micro}) [{b.start:.6g},{b.end:.6g}]"
                    )
    return problems


def inject_causality_violation(trace: TraceRecorder) -> str:
    """Tamper with a recorded trace so a dependency is violated.

    Used by ``repro verify --inject causality`` and the self-tests to
    prove the checker actually fires: the first downstream forward is
    rewound to start before its upstream producer finished.
    """
    for s in trace.compute_spans():
        if s.kind == SpanKind.FWD and s.stage is not None and s.stage > 0:
            duration = s.end - s.start
            s.start = -1.0
            s.end = s.start + max(duration, 1e-6)
            return (
                f"rewound F(p{s.pipeline},k{s.stage},mb{s.micro}) to start at {s.start}"
            )
    raise RuntimeError("trace has no downstream forward span to corrupt")


# ---------------------------------------------------------------------- #
# the simulator axis


def audit_sim(cfg: FuzzConfig, out: Finding) -> None:
    """Execute one config and check schedule, memory and causality."""
    run = run_config(cfg)
    out.problems.extend(
        f"static: {v}" for v in check_schedule(run.schedule, run.num_stages, cfg.num_micro)
    )
    res, prediction, capacity = run.result, run.prediction, run.capacity
    oomed = res.oom is not None
    out.tallies.update(
        oom=int(oomed), spans=0 if oomed else len(run.runner.trace.compute_spans())
    )
    if prediction.must_fit(capacity) and oomed:
        out.problems.append(
            f"memory: model guarantees fit under capacity {capacity} "
            f"(upper={prediction.upper}) but executor raised {res.oom!r}"
        )
    if prediction.must_oom(capacity) and not oomed:
        out.problems.append(
            f"memory: model guarantees OOM under capacity {capacity} "
            f"(lower={prediction.lower}) but the run completed"
        )
    if not oomed:
        for dev, (peak, lo, hi) in enumerate(
            zip(res.peak_memory, prediction.lower, prediction.upper)
        ):
            if not lo <= peak <= hi:
                out.problems.append(
                    f"memory: device {dev} peaked at {peak}, outside model bounds [{lo}, {hi}]"
                )
        out.problems.extend(f"causality: {p}" for p in run.causality())


def inject_causality_case(seed: int = 0) -> tuple[str, Finding]:
    """Run the first fitting config, tamper with its trace, re-check it.

    Backs ``repro verify --inject causality``: returns the tampering note
    and a finding whose problems the causality checker must fill.
    """
    cfg = next(
        c for c in fuzz_configs(50, seed=seed)
        if c.memory_regime == "fits" and c.num_stages >= 2
    )
    run = run_config(cfg)
    note = inject_causality_violation(run.runner.trace)
    return note, Finding(cfg, run.causality())


# ---------------------------------------------------------------------- #
# the protocol: one axis table, one draw -> audit loop


@dataclass(frozen=True)
class Axis:
    """One fuzz axis: how to draw its configs and audit one of them.

    ``audit(cfg, finding)`` records problems and tallies on the finding;
    ``summary`` is formatted over the summed tallies plus ``count``, the
    number of cases run (a tally no case reached reads 0).  ``full`` /
    ``quick`` are the default counts.
    """

    name: str
    draw: Callable[[int, int], list]
    audit: Callable[[Any, Finding], None]
    summary: str
    full: int
    quick: int

    def summarize(self, findings: Sequence[Finding]) -> str:
        totals: Counter = Counter(count=len(findings))
        for f in findings:
            totals.update(f.tallies)
        return self.summary.format_map(totals)


SIM_AXIS = Axis(
    "fuzz", fuzz_configs, audit_sim,
    "{count} configs ({oom} predicted OOM), {spans} trace spans checked",
    full=25, quick=25,
)
SCHED_AXIS = Axis(
    "sched-fuzz", sched_fuzz_configs, audit_sched,
    "{count} clusters ({completed} jobs completed, {rejected} rejected, "
    "{preemptions} preemptions, {resizes} resizes)",
    full=9, quick=3,
)
AXES = (SIM_AXIS, SCHED_AXIS)


def run_case(axis: Axis, cfg: Any) -> Finding:
    """Audit one drawn config; a crashing audit becomes a problem line."""
    out = Finding(cfg)
    try:
        axis.audit(cfg, out)
    except Exception as exc:
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
    return out


def run_axis(axis: Axis, count: int, seed: int = 0) -> list[Finding]:
    """Run a reproducible budget of one axis; findings in draw order."""
    return [run_case(axis, cfg) for cfg in axis.draw(count, seed)]
