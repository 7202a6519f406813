"""Execution tracing: spans, time decomposition and utilization curves.

Each stage process reports what it is doing (computing / blocked on a
receive whose transfer is in flight / idle waiting on schedule
dependencies); the recorder aggregates per device into the paper's
T_gpu / T_com / T_bub decomposition (Equation 1) and renders the
Figure-2/16 utilization-over-time curves from the device resources'
step functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.sim.cluster import Cluster
from repro.utils.timeline_render import TimelineSpan, render_gantt

__all__ = ["SpanKind", "TraceRecorder", "EQ1_COMPONENT"]


class SpanKind(str, enum.Enum):
    """What a recorded span was doing: fwd/bwd/comm/bubble/sync/fault."""
    FWD = "fwd"
    BWD = "bwd"
    COMM = "comm"  # receive wait that blocks a stage process
    BUBBLE = "bubble"  # idle wait on upstream/downstream dependencies
    SYNC = "sync"  # optimizer / allreduce / averaging
    FAULT = "fault"  # injected fault window (repro.resilience)
    RECOVERY = "recovery"  # detection-to-recovery window


#: Equation-1 component each span kind contributes to.  FAULT/RECOVERY
#: are annotation windows, not device work, and map to no component.
EQ1_COMPONENT: dict[SpanKind, str] = {
    SpanKind.FWD: "gpu",
    SpanKind.BWD: "gpu",
    SpanKind.COMM: "com",
    SpanKind.BUBBLE: "bub",
    SpanKind.SYNC: "sync",
}


@dataclass(slots=True)
class _Span:
    device: int
    start: float
    end: float
    kind: SpanKind
    label: str
    #: structured identity for causality checking (repro.verify.fuzz):
    #: which pipeline/stage produced this span, and which *global*
    #: micro-batch index (iteration * M + micro) it processed.  ``None``
    #: for spans without a per-micro identity (sync/comm/bubble).
    pipeline: int | None = None
    stage: int | None = None
    micro: int | None = None


class TraceRecorder:
    """Collects spans emitted by runtime processes.

    The recorder keeps :attr:`records`, one plain tuple per recorded op,

        (device, start, end, kind, label, pipelines, stage, micro)

    which stands for one span per entry of ``pipelines``, in order, each
    carrying that entry as its ``pipeline``.  :meth:`record` appends a
    one-span tuple; :meth:`record_op` records a lockstep group's op once
    (``pipelines`` is the member tuple, or ``(None,) * count`` for spans
    without an identity).  A record whose ``kind`` is ``None`` is a
    receive wait split at ``label`` (:meth:`record_wait`): per entry, a
    BUBBLE span over ``[start, label)`` then a COMM span over
    ``[label, end)``, each only if it is non-empty.  :attr:`spans`
    expands the records into :class:`_Span` objects on first read.

    An optional :class:`~repro.obs.registry.MetricRegistry` mirrors every
    span into metric series as it is recorded: a per-(device, component)
    ``trace.eq1_seconds`` counter accumulating the same float additions
    in the same order as :meth:`time_decomposition` (so the two agree
    *bitwise*, which the obs cross-check test asserts), plus per-kind
    span counts and duration histograms.  With no registry attached (the
    default) the hot path is untouched.
    """

    def __init__(self, registry: object | None = None) -> None:
        #: duck-typed MetricRegistry; None (default) disables mirroring.
        self.registry = registry
        self.records: list[tuple] = []
        # The expanded spans, and how many records they cover.
        self._spans: list[_Span] = []
        self._expanded = 0

    def record(
        self,
        device: int,
        start: float,
        end: float,
        kind: SpanKind,
        label: str = "",
        *,
        pipeline: int | None = None,
        stage: int | None = None,
        micro: int | None = None,
    ) -> None:
        if end < start:
            raise ValueError(f"span ends before it starts: {start} > {end} ({label})")
        if end > start:
            self.records.append((device, start, end, kind, label, (pipeline,), stage, micro))
            if self.registry is not None:
                duration = end - start
                self.registry.counter("trace.spans", device=device, kind=kind.value).inc()
                self.registry.histogram(
                    "trace.span_seconds", device=device, kind=kind.value
                ).observe(duration)
                component = EQ1_COMPONENT.get(kind)
                if component is not None:
                    self.registry.counter(
                        "trace.eq1_seconds", device=device, component=component
                    ).inc(duration)

    def record_op(
        self,
        device: int,
        start: float,
        end: float,
        kind: SpanKind,
        label: str,
        pipelines: tuple,
        stage: int | None = None,
        micro: int | None = None,
    ) -> None:
        """One span per entry of ``pipelines``, in order, over
        ``[start, end)`` (``end >= start``): one record, or with a
        registry attached one :meth:`record` per entry."""
        if self.registry is not None:
            for p in pipelines:
                self.record(device, start, end, kind, label, pipeline=p, stage=stage, micro=micro)
        elif end > start:
            self.records.append((device, start, end, kind, label, pipelines, stage, micro))

    def record_wait(self, device: int, start: float, split: float, end: float, count: int) -> None:
        """``count`` receive waits over ``[start, end)``, each a BUBBLE
        span up to ``split`` and a COMM span after it
        (``start <= split <= end``)."""
        if self.registry is not None:
            for _ in range(count):
                self.record(device, start, split, SpanKind.BUBBLE)
                self.record(device, split, end, SpanKind.COMM)
        else:
            self.records.append((device, start, end, None, split, (None,) * count, None, None))

    @property
    def spans(self) -> list[_Span]:
        """Every span in recording order.

        Built once from the records and then extended by later ones, so
        every read returns the same list: an in-place edit of it (see
        :func:`repro.verify.fuzz.inject_causality_violation`) stays
        visible to :meth:`compute_spans` and :meth:`render`.
        """
        spans = self._spans
        records = self.records
        if self._expanded < len(records):
            append = spans.append
            for device, start, end, kind, label, pipelines, stage, micro in records[
                self._expanded:
            ]:
                if kind is None:
                    for _ in pipelines:
                        if label > start:
                            append(_Span(device, start, label, SpanKind.BUBBLE, ""))
                        if end > label:
                            append(_Span(device, label, end, SpanKind.COMM, ""))
                else:
                    for p in pipelines:
                        append(_Span(device, start, end, kind, label, p, stage, micro))
            self._expanded = len(records)
        return spans

    def compute_spans(self) -> list[_Span]:
        """FWD/BWD spans carrying a (pipeline, stage, micro) identity."""
        return [
            s
            for s in self.spans
            if s.kind in (SpanKind.FWD, SpanKind.BWD) and s.micro is not None
        ]

    # ------------------------------------------------------------------ #
    # aggregation

    def time_decomposition(self, device: int) -> dict[str, float]:
        """T_gpu / T_com / T_bub totals for one device (Equation 1)."""
        return self.time_decomposition_all(device + 1)[device]

    def time_decomposition_all(self, num_devices: int) -> list[dict[str, float]]:
        """Per-device Equation-1 totals in one pass over the records.

        Accumulates each device's components in span order, one addition
        per span a record stands for, so the sums are those of a loop
        over :attr:`spans`; this is the one Equation-1 loop
        (:meth:`time_decomposition` reads one row).
        """
        out = [{"gpu": 0.0, "com": 0.0, "bub": 0.0, "sync": 0.0} for _ in range(num_devices)]
        component = EQ1_COMPONENT.get
        for device, start, end, kind, label, pipelines, _, _ in self.records:
            if device >= num_devices:
                continue
            row = out[device]
            if kind is None:  # a wait split at ``label``
                if label > start:
                    total, span = row["bub"], label - start
                    for _ in pipelines:
                        total += span
                    row["bub"] = total
                if end > label:
                    total, span = row["com"], end - label
                    for _ in pipelines:
                        total += span
                    row["com"] = total
                continue
            name = component(kind)  # None for FAULT / RECOVERY
            if name is not None:
                total, span = row[name], end - start
                for _ in pipelines:
                    total += span
                row[name] = total
        return out

    # ------------------------------------------------------------------ #
    # utilization (from the device compute resources)

    @staticmethod
    def average_utilization(cluster: Cluster, horizon: float) -> float:
        """Mean GPU utilization over all devices up to ``horizon``."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        total = sum(d.compute.utilization_integral(horizon) for d in cluster.devices)
        return total / (horizon * len(cluster.devices))

    @staticmethod
    def utilization_curve(cluster: Cluster, device: int, horizon: float, samples: int = 200) -> np.ndarray:
        """Utilization sampled on a uniform grid (Figure 16's series)."""
        steps = cluster.devices[device].compute.utilization_steps
        times = np.array([t for t, _ in steps])
        values = np.array([u for _, u in steps])
        grid = np.linspace(0.0, horizon, samples, endpoint=False)
        idx = np.searchsorted(times, grid, side="right") - 1
        return values[np.clip(idx, 0, len(values) - 1)]

    # ------------------------------------------------------------------ #
    # rendering

    def render(self, n_devices: int, width: int = 100, end_time: float | None = None) -> str:
        spans = [
            TimelineSpan(s.device, s.start, s.end, s.kind.value, s.label)
            for s in self.spans
            if s.kind in (SpanKind.FWD, SpanKind.BWD, SpanKind.COMM)
        ]
        return render_gantt(spans, n_devices, width=width, end_time=end_time)
