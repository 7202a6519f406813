"""Run reports: one short configured sim + numerics run, fully measured.

``repro report`` (and :func:`build_run_report` underneath) runs the
Figure-2 configuration — the workload's calibrated cluster under a
pipelined baseline schedule — with a :class:`MetricRegistry` attached,
plus a short real-numerics elastic-averaging run with training
telemetry, and emits:

* a Chrome-trace JSON of every recorded span (``trace.json``), loadable
  in ``chrome://tracing`` / Perfetto;
* a machine-readable run report (``run_report.json``) embedding the
  Equation-1 time decomposition **twice** — once from
  :meth:`TraceRecorder.time_decomposition`, once re-derived from the
  registry's ``trace.eq1_seconds`` counters — with a per-device exact
  (bitwise) match flag, the memory high-water marks, span quantiles and
  the full metric snapshot;
* a human-readable markdown rendering of the same (``run_report.md``).

The exact-match flag is the observability layer's own differential
oracle: if instrumentation ever drifts from the measurement path the
figures use, the report (and its test) fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.registry import MetricRegistry
from repro.obs.telemetry import TrainingTelemetry
from repro.obs.trace_export import TraceExporter

__all__ = [
    "RunReport",
    "build_run_report",
    "sched_telemetry",
    "EQ1_COMPONENTS",
]

MIB = 2**20
EQ1_COMPONENTS = ("gpu", "com", "bub", "sync")


@dataclass
class RunReport:
    """Everything ``repro report`` knows about one short run."""

    workload: str
    baseline: str
    iterations: int
    num_micro: int
    num_stages: int
    num_pipelines: int
    batch_time: float
    total_time: float
    samples_per_second: float
    avg_utilization: float
    #: per-device Eq.-1 totals from the TraceRecorder (seconds, raw).
    eq1_trace: list[dict] = field(default_factory=list)
    #: the same, re-derived from the registry counters.
    eq1_registry: list[dict] = field(default_factory=list)
    #: per-device bitwise agreement of the two derivations.
    eq1_exact_match: list[bool] = field(default_factory=list)
    peak_memory_bytes: list[int] = field(default_factory=list)
    weight_peak_bytes: list[float] = field(default_factory=list)
    activation_peak_bytes: list[float] = field(default_factory=list)
    span_summary: list[dict] = field(default_factory=list)
    numerics: dict = field(default_factory=dict)
    #: multi-job scheduler telemetry (``sched.*``), present when the
    #: attached registry saw a :mod:`repro.sched` run.
    sched: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    trace_events: int = 0

    @property
    def eq1_match(self) -> bool:
        return all(self.eq1_exact_match)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "baseline": self.baseline,
            "iterations": self.iterations,
            "num_micro": self.num_micro,
            "num_stages": self.num_stages,
            "num_pipelines": self.num_pipelines,
            "batch_time_seconds": self.batch_time,
            "total_time_seconds": self.total_time,
            "samples_per_second": self.samples_per_second,
            "avg_utilization": self.avg_utilization,
            "eq1": {
                "trace": self.eq1_trace,
                "registry": self.eq1_registry,
                "exact_match": self.eq1_exact_match,
                "match": self.eq1_match,
            },
            "memory": {
                "peak_bytes": self.peak_memory_bytes,
                "weight_peak_bytes": self.weight_peak_bytes,
                "activation_peak_bytes": self.activation_peak_bytes,
            },
            "span_summary": self.span_summary,
            "numerics": self.numerics,
            "sched": self.sched,
            "trace_events": self.trace_events,
            "metrics": self.metrics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True, default=float)

    def to_markdown(self) -> str:
        lines = [
            f"# Run report — {self.workload} / {self.baseline}",
            "",
            f"- iterations: {self.iterations} (M={self.num_micro}, "
            f"K={self.num_stages}, N={self.num_pipelines})",
            f"- batch time: {self.batch_time * 1e3:.2f} ms; "
            f"throughput: {self.samples_per_second:.1f} samples/s (sim clock)",
            f"- average GPU utilization: {self.avg_utilization:.3f}",
            f"- trace events exported: {self.trace_events}",
            "",
            "## Equation-1 time decomposition (seconds, whole run)",
            "",
            "| device | T_gpu | T_com | T_bub | T_sync | registry match |",
            "|---|---|---|---|---|---|",
        ]
        for dev, d in enumerate(self.eq1_trace):
            ok = "exact" if self.eq1_exact_match[dev] else "MISMATCH"
            lines.append(
                f"| {dev} | {d['gpu']:.6f} | {d['com']:.6f} | {d['bub']:.6f} "
                f"| {d['sync']:.6f} | {ok} |"
            )
        lines += [
            "",
            "## Memory high-water marks (MiB)",
            "",
            "| device | peak | weights | activations |",
            "|---|---|---|---|",
        ]
        for dev, peak in enumerate(self.peak_memory_bytes):
            lines.append(
                f"| {dev} | {peak / MIB:.1f} | "
                f"{self.weight_peak_bytes[dev] / MIB:.1f} | "
                f"{self.activation_peak_bytes[dev] / MIB:.1f} |"
            )
        if self.span_summary:
            lines += [
                "",
                "## Span durations (ms)",
                "",
                "| device | kind | count | mean | p50 | p95 | p99 |",
                "|---|---|---|---|---|---|---|",
            ]
            for row in self.span_summary:
                # mean is the exact sum/count sidecar; the quantiles are
                # bucket estimates — showing both reveals skew at a glance.
                lines.append(
                    f"| {row['device']} | {row['kind']} | {row['count']} | "
                    f"{row['mean'] * 1e3:.3f} | "
                    f"{row['p50'] * 1e3:.3f} | {row['p95'] * 1e3:.3f} | "
                    f"{row['p99'] * 1e3:.3f} |"
                )
        if self.numerics:
            n = self.numerics
            lines += [
                "",
                "## Training telemetry (elastic averaging, real numerics)",
                "",
                f"- rounds: {n['rounds']:.0f}; final loss: {n['final_loss']:.4f}",
                f"- divergence ‖x_i − x̃‖ (RMS): {n['divergence']:.6f}",
                f"- α: {n['alpha']:.4f}; α-pull RMS mean/p50/p95: "
                f"{n.get('pull_rms_mean', float('nan')):.2e} / "
                f"{n['pull_rms_p50']:.2e} / {n['pull_rms_p95']:.2e}",
                f"- reference updates: {n['reference_updates']:.0f}; "
                f"update RMS mean/p50: "
                f"{n.get('update_rms_mean', float('nan')):.2e} / "
                f"{n['update_rms_p50']:.2e}",
            ]
        if self.sched:
            s = self.sched
            w = s["queue_wait"]
            lines += [
                "",
                "## Scheduler (multi-job elastic service)",
                "",
                f"- cluster utilization: {s['cluster_util']:.4f} over "
                f"{s['makespan']:.3f} s makespan "
                f"({s['busy_device_seconds']:.1f} busy device-seconds)",
                f"- jobs: {s['jobs_completed']:.0f} completed, "
                f"{s['jobs_rejected']:.0f} rejected, "
                f"{s['preemptions']:.0f} preemptions, "
                f"{s['grows']:.0f} grows, {s['shrinks']:.0f} shrinks",
                "",
                "| queue wait | p50 | p95 | p99 | jobs |",
                "|---|---|---|---|---|",
                f"| seconds | {w['p50']:.4f} | {w['p95']:.4f} "
                f"| {w['p99']:.4f} | {w['count']} |",
            ]
        lines += [
            "",
            f"Verdict: Eq.-1 decomposition from the registry "
            f"{'matches the TraceRecorder exactly' if self.eq1_match else 'DIVERGES from the TraceRecorder'}.",
        ]
        return "\n".join(lines) + "\n"


def registry_decomposition(registry: MetricRegistry, device: int) -> dict[str, float]:
    """Eq.-1 totals for one device, re-derived from the registry."""
    return {
        component: registry.value("trace.eq1_seconds", device=device, component=component)
        for component in EQ1_COMPONENTS
    }


def build_run_report(
    workload: str = "bert",
    baseline: str = "gpipe",
    iterations: int = 2,
    num_micro: int | None = None,
    seed: int = 0,
    train_epochs: int = 1,
    registry: MetricRegistry | None = None,
) -> tuple[RunReport, TraceExporter]:
    """Run the Figure-2 configuration instrumented and build the report.

    ``train_epochs=0`` skips the numerics phase (sim only).  Returns the
    report and a :class:`TraceExporter` over the run's recorder.
    """
    from repro.baselines import (
        baseline_by_name,
        choose_baseline_micro,
        simulate_baseline,
    )
    from repro.core.simcfg import calibration_for

    registry = MetricRegistry() if registry is None else registry
    cal = calibration_for(workload)
    system = baseline_by_name(baseline)
    if system.schedule is None:
        raise ValueError("run reports need a pipelined baseline (no span stream in DP)")
    m = num_micro if num_micro is not None else choose_baseline_micro(system, cal)
    result = simulate_baseline(
        system, cal, num_micro=m, iterations=iterations,
        record_utilization=True, registry=registry,
    )
    if result.oom is not None:
        raise result.oom

    trace = result.trace
    eq1_trace, eq1_registry, exact = [], [], []
    for dev in range(result.num_stages):
        from_trace = trace.time_decomposition(dev)
        from_registry = registry_decomposition(registry, dev)
        eq1_trace.append(from_trace)
        eq1_registry.append(from_registry)
        exact.append(all(from_trace[c] == from_registry[c] for c in EQ1_COMPONENTS))

    span_summary = []
    for name, labels, hist in registry.series("trace.span_seconds"):
        s = hist.summary()
        span_summary.append({
            "device": int(labels["device"]),
            "kind": labels["kind"],
            "count": s["count"],
            "mean": s["mean"],
            "p50": s["p50"],
            "p95": s["p95"],
            "p99": s["p99"],
        })

    report = RunReport(
        workload=workload,
        baseline=baseline,
        iterations=iterations,
        num_micro=result.num_micro,
        num_stages=result.num_stages,
        num_pipelines=result.num_pipelines,
        batch_time=result.batch_time,
        total_time=result.total_time,
        samples_per_second=registry.value("sim.run.samples_per_second"),
        avg_utilization=result.avg_utilization,
        eq1_trace=eq1_trace,
        eq1_registry=eq1_registry,
        eq1_exact_match=exact,
        peak_memory_bytes=list(result.peak_memory),
        weight_peak_bytes=[
            registry.value("sim.mem.tag_peak_bytes", device=dev, tag="weights")
            for dev in range(result.num_stages)
        ],
        activation_peak_bytes=[
            registry.value("sim.mem.tag_peak_bytes", device=dev, tag="activations")
            for dev in range(result.num_stages)
        ],
        span_summary=span_summary,
        trace_events=len(trace.spans),
    )

    if train_epochs > 0:
        report.numerics = _numerics_telemetry(registry, seed, train_epochs)

    report.sched = sched_telemetry(registry)
    report.metrics = registry.snapshot()
    return report, TraceExporter(trace, num_devices=result.num_stages)


def sched_telemetry(registry: MetricRegistry) -> dict:
    """``sched.*`` telemetry for the report, or ``{}`` when the registry
    never saw a scheduler run (a caller shares one registry between
    :class:`repro.sched.ClusterScheduler` and :func:`build_run_report`,
    or stitches the section on afterwards)."""
    hist = registry.get("sched.queue_wait")
    if hist is None:
        return {}
    wait = hist.summary()
    return {
        "cluster_util": registry.value("sched.cluster_util"),
        "makespan": registry.value("sched.makespan"),
        "busy_device_seconds": registry.value("sched.busy_device_seconds"),
        "jobs_completed": registry.value("sched.jobs", event="completed"),
        "jobs_rejected": registry.value("sched.jobs", event="rejected"),
        "preemptions": registry.value("sched.jobs", event="preempted"),
        "grows": registry.value("sched.resize", direction="grow"),
        "shrinks": registry.value("sched.resize", direction="shrink"),
        "queue_wait": {
            "p50": wait["p50"],
            "p95": wait["p95"],
            "p99": wait["p99"],
            "count": wait["count"],
        },
    }


def _numerics_telemetry(registry: MetricRegistry, seed: int, epochs: int) -> dict:
    """Short real-numerics run with training telemetry attached."""
    from repro.core.trainer import AvgPipeTrainer
    from repro.resilience.chaos import tiny_chaos_spec

    spec = tiny_chaos_spec()
    trainer = AvgPipeTrainer(
        spec, seed=seed, num_pipelines=2, max_epochs=epochs,
        telemetry=TrainingTelemetry(registry),
    )
    result = trainer.train()
    pull = registry.get("elastic.pull_rms", model=0)
    update = registry.get("elastic.update_rms")
    return {
        "rounds": registry.value("train.rounds"),
        "final_loss": result.final_metric,
        "divergence": registry.value("train.divergence"),
        "alpha": registry.value("train.alpha"),
        "pull_rms_mean": pull.mean if pull is not None else float("nan"),
        "pull_rms_p50": pull.quantile(0.5) if pull is not None else float("nan"),
        "pull_rms_p95": pull.quantile(0.95) if pull is not None else float("nan"),
        "reference_updates": registry.value("elastic.reference_updates"),
        "update_rms_mean": update.mean if update is not None else float("nan"),
        "update_rms_p50": update.quantile(0.5) if update is not None else float("nan"),
        "samples": registry.value("train.samples"),
    }
