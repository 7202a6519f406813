"""Training telemetry publisher.

:class:`TrainingTelemetry` is the numeric trainer's per-iteration
telemetry: loss per pipeline, averaging divergence ‖x_i − x̃‖ and the
elastic α-pull magnitude (published by
:class:`~repro.core.elastic.ElasticAveragingFramework` itself), round
counters and per-epoch evaluation metrics.  Every hook is read-only on
trainer state, so instrumented and uninstrumented runs are bitwise
identical — a negative-path test asserts this.
"""

from __future__ import annotations

from repro.obs.registry import MetricRegistry

__all__ = ["TrainingTelemetry"]

#: loss values live in a few nats; linear buckets resolve 0.05 steps.
LOSS_BUCKETS: tuple[float, ...] = tuple(0.05 * i for i in range(1, 241))


class TrainingTelemetry:
    """Registry-backed per-iteration trainer telemetry."""

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    # ------------------------------------------------------------------ #
    # hooks the trainer calls (all read-only on trainer state)

    def record_loss(self, pipeline: int, loss: float | None) -> None:
        if loss is None:
            return
        self.registry.counter("train.batches", pipeline=pipeline).inc()
        self.registry.gauge("train.loss", pipeline=pipeline).set(loss)
        self.registry.histogram(
            "train.loss_hist", buckets=LOSS_BUCKETS, pipeline=pipeline
        ).observe(loss)

    def record_round(self, framework) -> None:
        """End-of-averaging-round telemetry: divergence, α, queue depth."""
        self.registry.counter("train.rounds").inc()
        self.registry.gauge("train.divergence").set(framework.divergence())
        self.registry.gauge("train.alpha").set(framework.alpha)
        self.registry.gauge("train.num_pipelines").set(framework.num_parallel)

    def record_eval(self, metric_name: str, value: float) -> None:
        self.registry.counter("train.evals").inc()
        self.registry.gauge("train.eval", metric=metric_name).set(value)

    def record_samples(self, n: int) -> None:
        self.registry.counter("train.samples").inc(n)
