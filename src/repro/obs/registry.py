"""Metric registry: counters, gauges, histograms with labeled series.

The paper's claims are measured claims — Equation 1's T_gpu/T_com/T_bub
decomposition, utilization-over-time (Figures 2/16), memory footprints
(Figure 12) — so instrumentation is a first-class subsystem here, the
way PipeDream and DAPPLE treat profiling.  A :class:`MetricRegistry`
holds labeled series of three instrument kinds:

* :class:`Counter` — monotone accumulator (span seconds, iterations);
* :class:`Gauge` — last-value with high/low-water marks (memory peaks,
  divergence, device capacity telemetry);
* :class:`Histogram` — fixed-bucket distribution with an exact
  count/sum/min/max sidecar and p50/p95/p99 quantile estimates whose
  error is bounded by the width of the bucket containing the quantile.

Design constraints the tests pin down:

* **zero overhead when disabled** — a registry constructed with
  ``enabled=False`` (and the shared :data:`NULL_REGISTRY`) hands out
  no-op singleton instruments and records *nothing*: no series are
  created, no allocations grow with the run, and instrumented code paths
  perform no arithmetic on behalf of the registry;
* **order-faithful accumulation** — a counter is a plain running float
  sum in call order, so a counter fed the same additions as an existing
  aggregation (e.g. :meth:`TraceRecorder.time_decomposition`) matches it
  bitwise, not approximately.
"""

from __future__ import annotations

import math
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "DEFAULT_TIME_BUCKETS",
]

#: Default histogram buckets for simulated-seconds durations: exponential
#: from 1 µs to ~100 s, the span of one kernel to one whole run.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * (4.0**i) for i in range(14)
)


class Counter:
    """Monotone accumulator; ``inc`` rejects negative amounts."""

    __slots__ = ("value", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.updates = 0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount
        self.updates += 1

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value, "updates": self.updates}


class Gauge:
    """Last-value instrument with high/low-water marks."""

    __slots__ = ("value", "max_value", "min_value", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.max_value = max(self.max_value, value)
        self.min_value = min(self.min_value, value)
        self.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def to_dict(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "max": self.max_value if self.updates else None,
            "min": self.min_value if self.updates else None,
            "updates": self.updates,
        }


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are strictly increasing bucket *upper* edges; an implicit
    overflow bucket catches values above the last edge.  Quantiles are
    estimated by locating the bucket containing the target rank and
    interpolating inside it, so for values that land in finite buckets
    the estimate is within one bucket width of the true empirical
    quantile (a property test pins this).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.bucket_counts[self._bucket_of(value)] += 1

    def _bucket_of(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if self.bounds[mid] >= value:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))  # inverted-CDF rank
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            cumulative += n
            if cumulative >= rank:
                # The first bucket reaching the rank is non-empty, and the
                # order statistic at that rank lies inside it.
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = self.bounds[i - 1] if i > 0 else min(self.min, hi)
                frac = (rank - (cumulative - n)) / n
                return lo + (hi - lo) * frac
        return self.max  # pragma: no cover - cumulative == count covers rank

    def summary(self) -> dict:
        """The fixed p50/p95/p99 summary the run report embeds."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "p50": self.quantile(0.50) if self.count else None,
            "p95": self.quantile(0.95) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
        }

    def to_dict(self) -> dict:
        return {"type": "histogram", **self.summary()}


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()

LabelKey = tuple[tuple[str, str], ...]


class MetricRegistry:
    """Labeled metric series, keyed by (name, sorted label items).

    Instruments are created on first touch and returned on every
    subsequent touch with the same (name, labels), so call sites can
    write ``registry.counter("x", device=3).inc(dt)`` in hot loops.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._series: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------ #
    # instrument accessors

    @staticmethod
    def _key(name: str, labels: dict) -> tuple[str, LabelKey]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, **labels) -> Counter | _NullInstrument:
        if not self.enabled:
            return _NULL
        key = self._key(name, labels)
        inst = self._series.get(key)
        if inst is None:
            inst = self._series[key] = Counter()
        elif not isinstance(inst, Counter):
            raise TypeError(f"{name}{labels} already registered as {type(inst).__name__}")
        return inst

    def gauge(self, name: str, **labels) -> Gauge | _NullInstrument:
        if not self.enabled:
            return _NULL
        key = self._key(name, labels)
        inst = self._series.get(key)
        if inst is None:
            inst = self._series[key] = Gauge()
        elif not isinstance(inst, Gauge):
            raise TypeError(f"{name}{labels} already registered as {type(inst).__name__}")
        return inst

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels
    ) -> Histogram | _NullInstrument:
        if not self.enabled:
            return _NULL
        key = self._key(name, labels)
        inst = self._series.get(key)
        if inst is None:
            inst = self._series[key] = Histogram(buckets or DEFAULT_TIME_BUCKETS)
        elif not isinstance(inst, Histogram):
            raise TypeError(f"{name}{labels} already registered as {type(inst).__name__}")
        return inst

    # ------------------------------------------------------------------ #
    # introspection

    def __len__(self) -> int:
        return len(self._series)

    def get(self, name: str, **labels):
        """The instrument at (name, labels), or None if never touched."""
        return self._series.get(self._key(name, labels))

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Counter/gauge value convenience; ``default`` if absent."""
        inst = self.get(name, **labels)
        return default if inst is None else inst.value

    def series(self, name: str | None = None, prefix: str | None = None) -> Iterator[
        tuple[str, dict[str, str], Counter | Gauge | Histogram]
    ]:
        """Iterate (name, labels, instrument), sorted for determinism."""
        for (series_name, label_key), inst in sorted(self._series.items()):
            if name is not None and series_name != name:
                continue
            if prefix is not None and not series_name.startswith(prefix):
                continue
            yield series_name, dict(label_key), inst

    def snapshot(self) -> dict:
        """JSON-ready dump of every series (the run report's ``metrics``)."""
        out: dict[str, list[dict]] = {}
        for series_name, labels, inst in self.series():
            out.setdefault(series_name, []).append({"labels": labels, **inst.to_dict()})
        return out


#: The shared disabled registry: safe to pass anywhere a registry is
#: accepted, records nothing, costs (almost) nothing.
NULL_REGISTRY = MetricRegistry(enabled=False)
