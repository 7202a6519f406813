"""Chaos harness: seeded end-to-end fault scenarios with recovery reports.

``repro chaos --scenario smoke --seed 0`` runs one named scenario through
two coordinated phases and emits a recovery-timeline report:

* **Simulation phase** — a 3-pipeline, 4-stage run on the discrete-event
  simulator, first fault-free (to calibrate the heartbeat interval and
  the throughput baseline), then with the scenario's
  :class:`~repro.resilience.faults.FaultPlan` installed and a
  :class:`~repro.resilience.detector.HeartbeatDetector` watching.  This
  phase yields wall-clock metrics: time-to-detect (seconds of simulated
  time between injection and the detector's report), time-to-recover
  (until every surviving pipeline has demonstrably made progress again,
  or the faulted component was restored) and throughput lost.

* **Numerics phase** — the same failure replayed against a real-numerics
  :class:`~repro.core.trainer.AvgPipeTrainer` on a tiny AWD workload,
  with an :class:`~repro.resilience.detector.IterationHeartbeat` and a
  :class:`~repro.resilience.recovery.RecoveryManager` in the loop.  This
  phase yields the statistical cost: final reference loss vs the
  fault-free baseline (must stay within the scenario's documented
  tolerance) and a post-recovery differential cross-check against the
  verify subsystem's elastic oracle
  (:func:`repro.verify.elastic_equivalence_check`).

A scenario *recovers* iff every detected failure was handled by a policy
and the final loss lands within tolerance; ``--no-recovery`` disables the
policies so the same seed demonstrably fails (the CI job asserts the
non-zero exit).  Everything is seeded — same seed, same report.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.trainer import AvgPipeTrainer
from repro.resilience.detector import (
    FailureReport,
    HeartbeatDetector,
    IterationHeartbeat,
)
from repro.resilience.faults import FaultEvent, FaultInjector, FaultPlan
from repro.resilience.recovery import (
    EvictPipeline,
    RecoveryManager,
    RestartFromCheckpoint,
    RetunePlan,
)
from repro.schedules import OneFOneBSchedule, PipelineSimRunner, StageCosts
from repro.sim import ClusterSpec, Simulator, make_cluster

__all__ = ["ChaosScenario", "ChaosReport", "SCENARIOS", "run_scenario", "tiny_chaos_spec"]

GIB = 2**30


# --------------------------------------------------------------------- #
# scenarios


@dataclass(frozen=True)
class ChaosScenario:
    """One named, seeded fault scenario."""

    name: str
    description: str
    kind: str  # a FAULT_KINDS entry
    #: |final loss − fault-free loss| bound for the numerics phase;
    #: calibrated in docs/resilience.md.
    loss_tolerance: float
    #: slowdown / degradation multiple for transient kinds
    factor: float = 4.0
    num_pipelines: int = 3
    epochs: int = 3


SCENARIOS: dict[str, ChaosScenario] = {
    s.name: s
    for s in [
        ChaosScenario(
            name="smoke",
            description="crash 1 of N=3 pipelines mid-run; recover by eviction",
            kind="pipeline_crash",
            loss_tolerance=0.25,
        ),
        ChaosScenario(
            name="blackout",
            description="one device freezes for a window; restart from checkpoint",
            kind="device_crash",
            loss_tolerance=0.25,
        ),
        ChaosScenario(
            name="straggler",
            description="one device at 1/4 speed for a window; re-tune (M, N)",
            kind="device_slowdown",
            loss_tolerance=0.0,  # performance fault: numerics unaffected
        ),
        ChaosScenario(
            name="partition",
            description="an inter-stage link severed for a window, then healed",
            kind="link_partition",
            loss_tolerance=0.0,  # performance fault: numerics unaffected
        ),
    ]
}


@dataclass
class ChaosReport:
    """Recovery-timeline report for one scenario run."""

    scenario: str
    seed: int
    recovery_enabled: bool
    sim: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)
    timeline: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "recovery_enabled": self.recovery_enabled,
            "recovered": self.recovered,
            "sim": self.sim,
            "numerics": self.numerics,
            "timeline": self.timeline,
            "failures": self.failures,
        }

    def render(self) -> str:
        lines = [
            f"chaos scenario {self.scenario!r} (seed {self.seed}, "
            f"recovery {'on' if self.recovery_enabled else 'off'})",
            "",
            "timeline:",
        ]
        lines += [f"  {entry}" for entry in self.timeline]
        if self.sim:
            lines += [
                "",
                "simulation phase:",
                f"  time to detect:    {self.sim['time_to_detect']:.4f} s",
                f"  time to recover:   {self.sim['time_to_recover']:.4f} s",
                f"  throughput lost:   {self.sim['throughput_lost']:.1%}",
            ]
        if self.numerics:
            lines += ["", "numerics phase:"]
            if "time_to_detect_rounds" in self.numerics:
                lines += [
                    f"  detect / recover:  {self.numerics['time_to_detect_rounds']} / "
                    f"{self.numerics.get('time_to_recover_rounds')} rounds after fault",
                ]
            lines += [
                f"  fault-free loss:   {self.numerics['baseline_loss']:.4f}",
                f"  final loss:        {self.numerics['final_loss']:.4f}  "
                f"(delta {self.numerics['loss_delta']:+.4f}, "
                f"tolerance {self.numerics['loss_tolerance']:.2f})",
            ]
            if self.numerics.get("oracle_divergence") is not None:
                lines.append(
                    f"  oracle divergence: {self.numerics['oracle_divergence']:.3e}"
                )
        lines += ["", f"verdict: {'RECOVERED' if self.recovered else 'UNRECOVERED'}"]
        lines += [f"  FAIL: {f}" for f in self.failures]
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# numerics workload


def tiny_chaos_spec(batch_size: int = 8):
    """A fast AWD-style workload (low-entropy Markov corpus) for the
    numerics phase — small enough that a full chaos run is a CI job."""
    from repro.data import LMConfig, batchify_lm, make_lm_corpus
    from repro.models import AWDConfig, build_awd_lstm
    from repro.models.registry import WorkloadSpec
    from repro.optim import SGD
    from repro.tensor import no_grad

    cfg = AWDConfig(vocab_size=10, embed_dim=8, hidden_dim=10, num_layers=1, bptt=6,
                    dropout=0.0, weight_drop=0.0)
    tokens, _, _ = make_lm_corpus(LMConfig(corpus_len=700, vocab_size=10, branching=2, seed=2))

    def loader(bs, seed):
        return batchify_lm(tokens, batch_size=bs, bptt=cfg.bptt)

    def evaluate(model):
        batches = batchify_lm(tokens[:200], batch_size=4, bptt=cfg.bptt)
        model.eval()
        with no_grad():
            loss = float(np.mean([model.loss(b).item() for b in batches]))
        model.train()
        return loss

    return WorkloadSpec(
        name="tiny-awd-chaos",
        build_model=lambda: build_awd_lstm(cfg),
        make_train_loader=loader,
        evaluate=evaluate,
        make_optimizer=lambda m: SGD(m.parameters(), lr=0.5),
        target=0.0,
        metric_mode="min",
        metric_name="loss",
        batch_size=batch_size,
        paper_devices=4,
    )


# --------------------------------------------------------------------- #
# simulation phase


def _make_runner():
    sim = Simulator()
    cluster = make_cluster(sim, 4, spec=ClusterSpec(nodes=2, gpus_per_node=2))
    costs = StageCosts(
        fwd_flops=(4.0e6,) * 4,
        act_out_bytes=(2.0e6,) * 4,
        stash_bytes=(6.0e6,) * 4,
        param_bytes=(1_000_000,) * 4,
    )
    runner = PipelineSimRunner(
        cluster,
        OneFOneBSchedule(versions=1),
        costs,
        num_micro=8,
        mb_size=8.0,
        num_pipelines=3,
        with_reference_model=True,
    )
    return sim, cluster, runner


def _sim_phase(scenario: ChaosScenario, seed: int, report: ChaosReport) -> None:
    iterations = 10

    # Fault-free calibration run: heartbeat interval and throughput base.
    _, _, base_runner = _make_runner()
    base = base_runner.run(iterations=iterations)
    batch_time = base.batch_time
    base_throughput = scenario.num_pipelines * iterations / base.total_time

    sim, cluster, runner = _make_runner()
    # Off the detector's poll grid (k * batch_time), so detection is
    # strictly after injection even for telemetry-visible faults.
    fault_at = 0.37 * base.total_time
    window = 0.3 * base.total_time
    if scenario.kind == "pipeline_crash":
        event = FaultEvent("pipeline_crash", fault_at, target=1)
    elif scenario.kind == "device_crash":
        event = FaultEvent("device_crash", fault_at, target=1, duration=window)
    elif scenario.kind == "device_slowdown":
        event = FaultEvent(
            "device_slowdown", fault_at, target=1, duration=window, factor=scenario.factor
        )
    else:  # link_partition
        event = FaultEvent("link_partition", fault_at, target=(0, 1), duration=window)
    plan = FaultPlan(events=[event], seed=seed)

    injector = FaultInjector(sim, cluster, runner=runner, trace=runner.trace)
    injector.install(plan)
    detector = HeartbeatDetector(
        sim,
        runner,
        cluster=cluster,
        interval=batch_time,
        miss_threshold=2.0,
        straggler_factor=2.0,
    )
    detector.start()
    result = runner.run(iterations=iterations)
    injector.finalize()

    report.timeline.append(
        f"t={fault_at:.4f}s  inject {event.kind} on "
        f"{'pipeline' if event.kind == 'pipeline_crash' else 'device/link'} {event.target}"
    )

    expected = {
        "pipeline_crash": "pipeline_crash",
        "device_crash": "device_crash",
        "device_slowdown": "straggler",
        "link_partition": "link_partition",
    }[scenario.kind]
    matching = [r for r in detector.reports if r.kind == expected]
    spurious = [r for r in detector.reports if r.detected_at < fault_at]
    if spurious:
        report.failures.append(
            f"detector fired before any fault was injected: {spurious[0]}"
        )
    if not matching:
        report.failures.append(
            f"injected {scenario.kind} at t={fault_at:.4f}s was never detected"
        )
        time_to_detect = float("nan")
        detected_at = None
    else:
        first = matching[0]
        detected_at = first.detected_at
        time_to_detect = detected_at - fault_at
        report.timeline.append(
            f"t={detected_at:.4f}s  detector: {first.kind} on {first.target} "
            f"({first.evidence})"
        )

    time_to_recover = _sim_recovery_time(
        scenario, injector, detector, runner, detected_at, fault_at
    )
    if time_to_recover is not None:
        report.timeline.append(
            f"t={fault_at + time_to_recover:.4f}s  recovered "
            f"(survivors progressing / fault healed)"
        )

    faulted_iterations = sum(runner.iterations_completed)
    faulted_throughput = (
        faulted_iterations / result.total_time if result.total_time > 0 else 0.0
    )
    report.sim = {
        "fault_plan": plan.to_dict(),
        "batch_time_fault_free": batch_time,
        "time_to_detect": time_to_detect,
        "time_to_recover": float("nan") if time_to_recover is None else time_to_recover,
        "iterations_completed": list(runner.iterations_completed),
        "throughput_fault_free": base_throughput,
        "throughput_faulted": faulted_throughput,
        "throughput_lost": 1.0 - faulted_throughput / base_throughput,
        "detected": [dataclasses.asdict(r) for r in detector.reports],
    }
    if time_to_detect == time_to_detect and time_to_detect <= 0:  # not NaN
        report.failures.append("time-to-detect is not positive")
    if time_to_recover is None:
        report.failures.append("time-to-recover could not be established")
    elif time_to_recover <= 0:
        report.failures.append("time-to-recover is not positive")


def _sim_recovery_time(
    scenario: ChaosScenario,
    injector: FaultInjector,
    detector: HeartbeatDetector,
    runner: PipelineSimRunner,
    detected_at: float | None,
    fault_at: float,
) -> float | None:
    """Seconds from injection until the system was demonstrably healthy.

    For transient faults that's the heal/restore instant; for a pipeline
    crash it's the first moment *every* survivor has completed new work
    after the detection (the survivors' pipelines are confirmed live at
    the reduced degree N−1).
    """
    if scenario.kind != "pipeline_crash":
        entry = injector.log[0]
        if entry.reverted_at is None:
            return None
        return entry.reverted_at - fault_at
    if detected_at is None:
        return None
    crashed = {r.target for r in detector.reports if r.kind == "pipeline_crash"}
    survivors = [p for p in range(runner.num_pipelines) if p not in crashed]
    confirm = []
    for p in survivors:
        after = [
            s.end
            for s in runner.trace.compute_spans()
            if s.pipeline == p and s.end > detected_at
        ]
        if not after:
            return None
        confirm.append(min(after))
    return max(confirm) - fault_at


# --------------------------------------------------------------------- #
# numerics phase


@dataclass
class _NumericsRun:
    trainer: AvgPipeTrainer
    final_loss: float
    history: list[float]
    rounds: int
    crash_round: int | None = None
    detect_round: int | None = None
    recover_round: int | None = None
    manager: RecoveryManager | None = None
    timeline: list[str] = field(default_factory=list)


def _train_rounds(
    spec,
    seed: int,
    epochs: int,
    num_pipelines: int,
    crash_round: int | None = None,
    crash_id: int = 1,
    recovery: bool = True,
    miss_threshold: int = 2,
    checkpoint_round: int | None = None,
    checkpoint_path: Path | None = None,
    blackout: bool = False,
) -> _NumericsRun:
    """The trainer's epoch loop, instrumented for chaos.

    Each batch is one :meth:`AvgPipeTrainer.step` and each round closes
    with :meth:`AvgPipeTrainer.end_round`; the fault, heartbeat and
    checkpoint logic sits around those calls.  When no fault fires the
    run equals :meth:`AvgPipeTrainer.train` bit for bit
    (``tests/test_resilience_chaos.py::test_fault_free_rounds_match_the_trainer``),
    and the baseline runs through this same loop.  A ``pipeline_crash`` makes
    pipeline ``crash_id`` stop consuming batches and posting deltas from
    round ``crash_round``; a ``blackout`` reseeds *every* model at
    ``crash_round`` (a device crash kills a stage of each pipeline) and
    recovery means reloading the checkpoint taken at ``checkpoint_round``.
    """
    trainer = AvgPipeTrainer(spec, seed=seed, num_pipelines=num_pipelines,
                             max_epochs=epochs)
    heartbeat = IterationHeartbeat(miss_threshold=miss_threshold)
    policies = []
    if recovery:
        policies = [EvictPipeline()]
        if checkpoint_path is not None:
            policies.append(RestartFromCheckpoint(checkpoint_path))
    manager = RecoveryManager(policies)
    run = _NumericsRun(trainer, float("nan"), [], 0, crash_round=crash_round,
                       manager=manager)

    live = list(range(num_pipelines))  # stable ids; position = live.index(id)
    crashed: set[int] = set()
    rnd = 0
    blackout_hit = False
    blackout_pending = False

    def maybe_fault() -> None:
        nonlocal blackout_hit, blackout_pending
        if crash_round is None:
            return
        if blackout:
            if rnd == crash_round and not blackout_hit:
                blackout_hit = True
                blackout_pending = True
                _apply_blackout(trainer, seed)
                run.timeline.append(f"round {rnd}: device crash wipes all pipelines")
            elif blackout_pending and rnd > crash_round:
                # Detection (sim-phase telemetry) and restart land a round
                # after the outage — the work in between is lost.
                blackout_pending = False
                run.detect_round = rnd
                report = FailureReport("device_crash", 1, float(rnd),
                                       "correlated stage failure")
                record = manager.handle(report, trainer, float(rnd))
                if record is not None:
                    run.recover_round = rnd
                    run.timeline.append(
                        f"round {rnd}: restart from checkpoint ({record.details})"
                    )
        elif rnd == crash_round and crash_id not in crashed and crash_id in live:
            crashed.add(crash_id)
            run.timeline.append(f"round {rnd}: pipeline {crash_id} crashes")

    def end_round() -> None:
        nonlocal rnd
        trainer.end_round()
        rnd += 1
        for report in heartbeat.check():
            dead = report.target
            if run.detect_round is None:
                run.detect_round = rnd
            run.timeline.append(
                f"round {rnd}: heartbeat detects pipeline {dead} dead "
                f"({report.evidence})"
            )
            positional = dataclasses.replace(report, target=live.index(dead))
            record = manager.handle(positional, trainer, float(rnd))
            if record is not None:
                live.remove(dead)
                crashed.discard(dead)
                heartbeat.retire(dead)
                if run.recover_round is None:
                    run.recover_round = rnd
                run.timeline.append(
                    f"round {rnd}: evicted pipeline {dead}; "
                    f"N={trainer.num_pipelines}, alpha={trainer.framework.alpha:.4f}"
                )

    for epoch in range(epochs):
        pending = 0
        for batch in trainer.loader:
            maybe_fault()
            alive = [i for i in live if i not in crashed]
            ident = alive[pending % len(alive)]
            trainer.step(live.index(ident), batch)
            heartbeat.beat(ident, rnd)
            pending += 1
            if pending >= len(alive):
                pending = 0
                end_round()
            if (
                checkpoint_round is not None
                and rnd == checkpoint_round
                and checkpoint_path is not None
                and not checkpoint_path.exists()
            ):
                from repro.core.checkpoint import save_trainer

                save_trainer(trainer, checkpoint_path)
                run.timeline.append(f"round {rnd}: checkpoint saved")
        if pending:
            pending = 0
            end_round()
        run.history.append(trainer.evaluate())
    run.final_loss = run.history[-1]
    run.rounds = rnd
    return run


def _apply_blackout(trainer: AvgPipeTrainer, seed: int) -> None:
    """A device crash takes one stage of *every* pipeline: all processes
    die and restart with fresh (untrained) weights — the state a restart
    without a checkpoint would be left with."""
    for i, model in enumerate(trainer.models):
        fresh = trainer.spec.build_model().seed(seed * 31 + 17 * i + 5)
        model.load_state_dict(fresh.state_dict())
    trainer.framework.recenter()


def _numerics_phase(scenario: ChaosScenario, seed: int, recovery: bool,
                    report: ChaosReport) -> None:
    if scenario.kind in ("device_slowdown", "link_partition"):
        _retune_phase(scenario, seed, recovery, report)
        return

    spec = tiny_chaos_spec()
    crash_round = 4
    baseline = _train_rounds(spec, seed, scenario.epochs, scenario.num_pipelines)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "chaos.npz"
        if scenario.kind == "pipeline_crash":
            faulted = _train_rounds(
                spec, seed, scenario.epochs, scenario.num_pipelines,
                crash_round=crash_round, crash_id=1, recovery=recovery,
            )
        else:  # device_crash
            faulted = _train_rounds(
                spec, seed, scenario.epochs, scenario.num_pipelines,
                crash_round=crash_round, recovery=recovery,
                checkpoint_round=2, checkpoint_path=ckpt, blackout=True,
            )
        oracle_divergence = None
        if recovery:
            from repro.verify import elastic_equivalence_check

            oracle_divergence = elastic_equivalence_check(
                faulted.trainer.framework, spec.build_model, rounds=2, seed=seed
            )

    report.timeline.extend(faulted.timeline)
    delta = faulted.final_loss - baseline.final_loss
    report.numerics = {
        "baseline_loss": baseline.final_loss,
        "final_loss": faulted.final_loss,
        "loss_delta": delta,
        "loss_tolerance": scenario.loss_tolerance,
        "loss_history": faulted.history,
        "baseline_history": baseline.history,
        "crash_round": faulted.crash_round,
        "detect_round": faulted.detect_round,
        "recover_round": faulted.recover_round,
        "pipelines_after": faulted.trainer.num_pipelines,
        "alpha_after": faulted.trainer.framework.alpha,
        "oracle_divergence": oracle_divergence,
        "recovery_records": [
            {"policy": r.policy, "at_round": r.recovered_at, **r.details}
            for r in (faulted.manager.records if faulted.manager else [])
        ],
    }
    if faulted.detect_round is not None and faulted.crash_round is not None:
        report.numerics["time_to_detect_rounds"] = (
            faulted.detect_round - faulted.crash_round
        )
        if report.numerics["time_to_detect_rounds"] <= 0:
            report.failures.append("numerics time-to-detect is not positive")
    if faulted.recover_round is not None and faulted.crash_round is not None:
        report.numerics["time_to_recover_rounds"] = (
            faulted.recover_round - faulted.crash_round
        )

    if faulted.detect_round is None:
        report.failures.append("numerics phase: failure was never detected")
    if faulted.manager is not None and faulted.manager.unhandled:
        report.failures.append(
            f"{len(faulted.manager.unhandled)} detected failure(s) had no "
            "recovery policy (recovery disabled?)"
        )
    if abs(delta) > scenario.loss_tolerance:
        report.failures.append(
            f"final loss delta {delta:+.4f} exceeds tolerance "
            f"{scenario.loss_tolerance:.2f}"
        )
    if oracle_divergence is not None and oracle_divergence > 1e-4:
        report.failures.append(
            f"post-recovery framework diverges from the elastic oracle by "
            f"{oracle_divergence:.3e}"
        )


def _retune_phase(scenario: ChaosScenario, seed: int, recovery: bool,
                  report: ChaosReport) -> None:
    """Performance faults leave the numerics untouched; the numerics-side
    response to a straggler is re-picking (M, N) for the degraded cluster."""
    report.numerics = {
        "baseline_loss": 0.0,
        "final_loss": 0.0,
        "loss_delta": 0.0,
        "loss_tolerance": scenario.loss_tolerance,
        "oracle_divergence": None,
    }
    if scenario.kind != "device_slowdown":
        return
    stragglers = [
        FailureReport(**{k: v for k, v in r.items()})
        for r in report.sim.get("detected", [])
        if r["kind"] == "straggler"
    ]
    if not stragglers:
        return
    if not recovery:
        report.failures.append("straggler detected but retuning disabled")
        return
    from repro.core.profiler import Profiler
    from repro.graph import LayerCost, partition_model

    spec = ClusterSpec(nodes=2, gpus_per_node=2)
    layer_costs = [
        LayerCost(f"l{i}", flops_per_sample=2.0e5,
                  activation_bytes_per_sample=2.0e4, param_bytes=500_000)
        for i in range(8)
    ]
    partition = partition_model(
        layer_costs, 4, bandwidth_bytes_per_sec=spec.inter_node_bandwidth,
        flops_per_sec=spec.peak_flops,
    )
    profiler = Profiler(
        layer_costs=layer_costs, partition=partition,
        schedule=OneFOneBSchedule(versions=1), cluster_spec=spec,
        batch_size=64, with_reference_model=True,
    )
    retune = RetunePlan(profiler, memory_limit_bytes=2 * GIB,
                        n_candidates=[1, 2, 3])
    details = retune.apply(None, stragglers[0])
    report.numerics["retune"] = details
    action = "re-partitioned" if details.get("repartitioned") else "plan kept"
    report.timeline.append(
        f"retune for {details['slowdown']:.1f}x straggler: "
        f"M={details['m']}, N={details['n']}, {action} "
        f"(cut={details['boundaries']}, placement={details['placement']})"
    )


# --------------------------------------------------------------------- #
# entry point


def run_scenario(name: str, seed: int = 0, recovery: bool = True) -> ChaosReport:
    """Run one named scenario end to end; see the module docstring."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; one of {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    report = ChaosReport(scenario=name, seed=seed, recovery_enabled=recovery)
    _sim_phase(scenario, seed, report)
    _numerics_phase(scenario, seed, recovery, report)
    return report
