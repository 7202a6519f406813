"""Observability layer: metrics registry, trace export, run reports.

Everything here is opt-in and read-only: no simulator or trainer path
allocates a single metric series unless a caller hands it an *enabled*
:class:`MetricRegistry`, and the instrumented code paths are bitwise
identical to the uninstrumented ones (the obs test suite pins both
properties).

:mod:`repro.obs.bench` holds only the environment fingerprint that
``benchmarks/e2e`` stamps into its results; the package does not import
it, so importing ``repro.obs`` pulls in no ``platform`` or
``subprocess``.
"""

from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.obs.report import (
    RunReport,
    build_run_report,
    sched_telemetry,
)
from repro.obs.telemetry import TrainingTelemetry
from repro.obs.trace_export import TraceExporter

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "DEFAULT_TIME_BUCKETS",
    "TraceExporter",
    "TrainingTelemetry",
    "RunReport",
    "build_run_report",
    "sched_telemetry",
]
