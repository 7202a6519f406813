"""Versioned, append-only run-history store for the learned tuner.

Every tuned or measured run becomes one :class:`TuneRecord` — the
configuration fingerprint, the analytic Eq.-1/Eq.-8 prediction, the
measured per-batch seconds and peak memory (sourced from the
:mod:`repro.obs` metric registry when one is attached), and outcome
flags (OOM, degraded cluster).  Records serialize as *canonical* strict
JSON — sorted keys, no whitespace, ``allow_nan=False`` — one record per
line, so

* append/load round-trips are byte-stable,
* merging two stores is a sorted line-set union (commutative and
  idempotent),
* any corrupted or truncated line raises a typed
  :class:`StoreCorruptError` instead of being silently skipped.

Fingerprints come in three granularities, coarse to fine:

* ``cluster`` — the :class:`~repro.sim.cluster.ClusterSpec` alone (no
  lookup tier reads it; it is kept in each record for provenance);
* ``context`` — cluster + schedule + partition + batch size + byte
  scales, i.e. everything *except* the parallelism degrees (the learned
  predictor's exact-match tier);
* ``fingerprint`` — context + (M, N): one unique run configuration.

The store never reads a clock or an RNG; identical appends produce
identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "STORE_VERSION",
    "StoreError",
    "StoreCorruptError",
    "TuneRecord",
    "RunStore",
    "RunContext",
    "canonical_json",
    "config_fingerprint",
    "cluster_fingerprint",
    "run_context",
    "tuner_context",
    "schedule_label",
    "record_run",
]

#: bump when the record schema changes; loaders reject other versions
#: loudly (a silent skip would bias the residual fit).
STORE_VERSION = 1

#: hex digits kept from the SHA-256 — plenty against accidental
#: collision at run-history scale, short enough to log.
_FINGERPRINT_HEX = 16


class StoreError(RuntimeError):
    """Any run-store failure (base class)."""


class StoreCorruptError(StoreError):
    """A record line that cannot be trusted: truncated, non-JSON,
    missing or mistyped fields, wrong version, or a fingerprint that
    does not match its own payload."""


def canonical_json(payload: dict) -> str:
    """The one true serialization: sorted keys, compact, strict floats."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def config_fingerprint(payload: dict) -> str:
    """Deterministic hex fingerprint of a canonical-JSON payload."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:_FINGERPRINT_HEX]


def _spec_payload(spec) -> dict:
    """A ClusterSpec as a canonical dict (every planner-visible field)."""
    return {
        "nodes": spec.nodes,
        "gpus_per_node": spec.gpus_per_node,
        "peak_flops": spec.peak_flops,
        "memory_bytes": spec.memory_bytes,
        "intra_node_bandwidth": spec.intra_node_bandwidth,
        "inter_node_bandwidth": spec.inter_node_bandwidth,
        "intra_node_latency": spec.intra_node_latency,
        "inter_node_latency": spec.inter_node_latency,
        "curve": [spec.curve.u_max, spec.curve.u_floor, spec.curve.b_half],
        "device_speed": list(spec.device_speed) if spec.device_speed else None,
        "device_memory_bytes": (
            list(spec.device_memory_bytes) if spec.device_memory_bytes else None
        ),
        "link_overrides": [list(row) for row in spec.link_overrides],
    }


def cluster_fingerprint(spec) -> str:
    """Fingerprint of a :class:`~repro.sim.cluster.ClusterSpec` alone."""
    return config_fingerprint(_spec_payload(spec))


def schedule_label(schedule) -> str:
    """Stable name for a schedule instance, e.g. ``advance_fp(2)``."""
    advance = getattr(schedule, "advance", None)
    if advance is not None:
        return f"{schedule.name}({advance})"
    versions = getattr(schedule, "versions", None)
    if versions is not None:
        return f"{schedule.name}(v{versions})"
    return str(schedule.name)


@dataclass(frozen=True)
class RunContext:
    """The fingerprints one run configuration hashes down to."""

    context: str  #: everything except (M, N)
    cluster: str  #: the ClusterSpec alone
    workload: str
    schedule: str
    num_stages: int
    batch_size: int

    def fingerprint(self, m: int, n: int) -> str:
        return config_fingerprint({"context": self.context, "m": m, "n": n})


def run_context(
    cluster_spec,
    schedule: str,
    num_stages: int,
    batch_size: int,
    workload: str = "",
    extra: dict | None = None,
) -> RunContext:
    """Hash a run configuration (minus the parallelism degrees)."""
    cluster = cluster_fingerprint(cluster_spec)
    payload = {
        "cluster": cluster,
        "schedule": schedule,
        "num_stages": num_stages,
        "batch_size": batch_size,
        "workload": workload,
    }
    if extra:
        payload["extra"] = {k: extra[k] for k in sorted(extra)}
    return RunContext(
        context=config_fingerprint(payload),
        cluster=cluster,
        workload=workload,
        schedule=schedule,
        num_stages=num_stages,
        batch_size=batch_size,
    )


def tuner_context(profiler, workload: str = "") -> RunContext:
    """The :class:`RunContext` of a :class:`~repro.core.profiler.Profiler`."""
    return run_context(
        profiler.cluster_spec,
        schedule=schedule_label(profiler.schedule),
        num_stages=profiler.partition.num_stages,
        batch_size=profiler.batch_size,
        workload=workload,
        extra={
            "boundaries": list(profiler.partition.boundaries),
            "placement": (
                list(profiler.placement) if profiler.placement is not None else None
            ),
            "activation_byte_scale": profiler.activation_byte_scale,
            "param_byte_scale": profiler.param_byte_scale,
            "stash_multiplier": profiler.stash_multiplier,
            "optimizer_state_factor": profiler.optimizer_state_factor,
            "with_reference_model": profiler.with_reference_model,
            "activation_recompute": profiler.activation_recompute,
        },
    )


# --------------------------------------------------------------------- #
# records


@dataclass(frozen=True)
class TuneRecord:
    """One recorded run: config fingerprint, prediction, measurement."""

    context: str
    cluster: str
    workload: str
    schedule: str
    k: int  #: pipeline stages
    m: int  #: micro-batch count
    n: int  #: parallel pipelines
    predicted_batch_time: float  #: Eq.-1 seconds per iteration
    predicted_peak_bytes: float  #: Eq.-8 max over stages
    measured_batch_time: float | None  #: simulated Eq.-1 seconds (None on OOM)
    measured_peak_bytes: float | None  #: device high-water mark (None on OOM)
    oom: bool = False
    degraded: bool = False  #: recorded against a degraded/straggler cluster
    version: int = STORE_VERSION

    def __post_init__(self) -> None:
        if self.version != STORE_VERSION:
            raise StoreCorruptError(
                f"record version {self.version!r} != store version {STORE_VERSION}"
            )
        if self.k <= 0 or self.m <= 0 or self.n <= 0:
            raise StoreCorruptError(
                f"parallelism degrees must be positive: K={self.k} M={self.m} N={self.n}"
            )
        for label, value in (
            ("predicted_batch_time", self.predicted_batch_time),
            ("predicted_peak_bytes", self.predicted_peak_bytes),
        ):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise StoreCorruptError(f"{label} must be finite, got {value!r}")
        for label, value in (
            ("measured_batch_time", self.measured_batch_time),
            ("measured_peak_bytes", self.measured_peak_bytes),
        ):
            if value is not None and (
                not isinstance(value, (int, float)) or not math.isfinite(value)
            ):
                raise StoreCorruptError(f"{label} must be finite or null, got {value!r}")
        if not self.oom and self.measured_batch_time is None:
            raise StoreCorruptError("non-OOM record without a measured batch time")

    @property
    def fingerprint(self) -> str:
        """context + (M, N): unique per distinct run configuration."""
        return config_fingerprint({"context": self.context, "m": self.m, "n": self.n})

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["fingerprint"] = self.fingerprint
        return payload

    def to_line(self) -> str:
        return canonical_json(self.to_payload())

    @classmethod
    def from_payload(cls, payload: dict) -> "TuneRecord":
        if not isinstance(payload, dict):
            raise StoreCorruptError(f"record is not an object: {payload!r}")
        claimed = payload.pop("fingerprint", None)
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise StoreCorruptError(f"unknown record fields: {sorted(unknown)}")
        missing = names - set(payload)
        if missing:
            raise StoreCorruptError(f"missing record fields: {sorted(missing)}")
        try:
            record = cls(**payload)
        except (TypeError, ValueError) as exc:
            raise StoreCorruptError(f"malformed record: {exc}") from exc
        if claimed is not None and claimed != record.fingerprint:
            raise StoreCorruptError(
                f"fingerprint {claimed!r} does not match payload "
                f"({record.fingerprint!r}) — record tampered or truncated"
            )
        return record

    @classmethod
    def from_line(cls, line: str) -> "TuneRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreCorruptError(
                f"unparseable record line (truncated write?): {line[:80]!r}"
            ) from exc
        return cls.from_payload(payload)

    def sort_key(self) -> tuple:
        """Canonical merge order: by config, then by the full line (so
        distinct measurements of the same config keep a stable order)."""
        return (self.context, self.m, self.n, self.to_line())


# --------------------------------------------------------------------- #
# the store


class RunStore:
    """Append-only JSONL store of :class:`TuneRecord`\\ s.

    ``RunStore(path)`` binds the store to a file: existing records load
    eagerly (raising :class:`StoreCorruptError` on any bad line) and
    every :meth:`append` writes through.  ``RunStore()`` is in-memory.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: list[TuneRecord] = []
        if self.path is not None and self.path.exists():
            self._records = list(self._read(self.path))

    @staticmethod
    def _read(path: Path) -> Iterable[TuneRecord]:
        text = path.read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                raise StoreCorruptError(f"{path}:{lineno}: blank record line")
            try:
                yield TuneRecord.from_line(line)
            except StoreCorruptError as exc:
                raise StoreCorruptError(f"{path}:{lineno}: {exc}") from exc

    @classmethod
    def from_records(cls, records: Sequence[TuneRecord]) -> "RunStore":
        store = cls()
        store._records = list(records)
        return store

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> tuple[TuneRecord, ...]:
        return tuple(self._records)

    def append(self, record: TuneRecord) -> None:
        if not isinstance(record, TuneRecord):
            raise StoreError(f"can only append TuneRecord, got {type(record)}")
        self._records.append(record)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as fh:
                fh.write(record.to_line() + "\n")

    def merge(self, other: "RunStore") -> "RunStore":
        """Line-set union in canonical order: commutative, idempotent."""
        seen: dict[str, TuneRecord] = {}
        for record in list(self._records) + list(other._records):
            seen.setdefault(record.to_line(), record)
        merged = sorted(seen.values(), key=TuneRecord.sort_key)
        return RunStore.from_records(merged)

    # ------------------------------------------------------------------ #
    # lookup tiers (see repro.tune.residual.select_records)

    def matching(self, context: str) -> tuple[TuneRecord, ...]:
        """Exact-context records: same cluster, schedule, partition, …"""
        return tuple(r for r in self._records if r.context == context)

    def matching_workload(self, workload: str, k: int) -> tuple[TuneRecord, ...]:
        """Transfer-tier records: same workload family and stage count,
        any cluster/schedule (residuals are mostly model-shape-driven)."""
        if not workload:
            return ()
        return tuple(
            r for r in self._records if r.workload == workload and r.k == k
        )


# --------------------------------------------------------------------- #
# recording


def record_run(
    profiler,
    m: int,
    n: int,
    store: RunStore | None = None,
    workload: str = "",
    iterations: int = 3,
    degraded: bool = False,
    registry=None,
    profile_iterations: int = 4,
) -> TuneRecord:
    """Run setting (M, N) once, record prediction vs measurement.

    The measured peak comes from the :mod:`repro.obs` memory high-water
    gauges when a registry observes the run (the same source ``repro
    report`` audits).  The measured time is the simulated iteration time
    *per batch* (an iteration advances N batches concurrently), matching
    the unit of the Eq.-1 prediction — so measured/predicted ratios are
    comparable across settings with different N.  Appends to ``store``
    when given and returns the record either way.
    """
    from repro.core.predictor import Predictor
    from repro.obs.registry import MetricRegistry

    profile = profiler.profile(iterations=profile_iterations)
    prediction = Predictor(profile).predict(m, n)
    reg = registry if registry is not None else MetricRegistry()
    result = profiler.run_setting(m, n, iterations=iterations, registry=reg)
    context = tuner_context(profiler, workload=workload)
    if result.oom is not None:
        measured_time = None
        measured_peak = None
    else:
        measured_time = result.batch_time / n
        peaks = [
            reg.value("sim.mem.peak_bytes", device=d)
            for d in range(result.num_stages)
        ]
        measured_peak = float(max(peaks)) if any(peaks) else float(
            max(result.peak_memory)
        )
    record = TuneRecord(
        context=context.context,
        cluster=context.cluster,
        workload=workload,
        schedule=context.schedule,
        k=context.num_stages,
        m=m,
        n=n,
        predicted_batch_time=prediction.batch_time,
        predicted_peak_bytes=float(prediction.peak_memory),
        measured_batch_time=measured_time,
        measured_peak_bytes=measured_peak,
        oom=result.oom is not None,
        degraded=degraded,
    )
    if store is not None:
        store.append(record)
    return record
