"""Micro-benchmark harness (``repro bench``).

The paper's claim is end to end (time to target, Figures 11 and 14), and
``benchmarks/e2e/`` measures it: five workloads, each run's wall time
split into layer spans.  This harness keeps only what that benchmark
cannot measure:

* the fused autograd kernels (``tensor.lstm_cell``, ``tensor.attention``,
  ``tensor.linear``), whose peak allocation is deterministic, so CI can
  gate it tightly against a baseline recorded on another machine;
* ``trace.export``, the Chrome-trace export no e2e workload runs.

The module provides

* :class:`Benchmark` / :func:`run_benchmark` — one deterministic, seeded
  measurement: ``warmup`` untimed runs, ``repeats`` timed runs
  (median/IQR over ``time.perf_counter``), plus one profiled run under
  :mod:`tracemalloc` recording peak allocated bytes, net retained bytes
  and the net allocated-block delta;
* :func:`bench_catalog` — the four entries above;
* :func:`write_payload` — results land as ``BENCH_<n>.json`` at the repo
  root (auto-numbered) with an environment fingerprint
  (python/platform/git sha/package version/calibration constants), which
  ``benchmarks/e2e`` stamps into its own results too;
* :func:`compare_payloads` — per-benchmark delta verdicts against a
  baseline file; a run *regresses* when its median wall time or peak
  allocation exceeds the baseline by more than ``threshold`` (25 %
  default), which is what gives ``repro bench --compare`` its non-zero
  exit code.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.utils.tables import format_table

__all__ = [
    "Benchmark",
    "BenchResult",
    "CompareReport",
    "CompareRow",
    "SCHEMA",
    "bench_catalog",
    "compare_payloads",
    "fingerprint",
    "latest_bench_path",
    "next_bench_path",
    "render_compare",
    "render_results",
    "run_benchmark",
    "run_suite",
    "select_suite",
    "suite_names",
    "to_payload",
    "write_payload",
]

#: schema tag embedded in every BENCH_<n>.json
SCHEMA = "repro.obs.bench/v1"

#: default regression threshold: 25 % on median wall time or peak bytes
DEFAULT_THRESHOLD = 0.25

_BENCH_FILE = re.compile(r"^BENCH_(\d+)\.json$")


# --------------------------------------------------------------------- #
# benchmark definition + single-benchmark runner


@dataclass(frozen=True)
class Benchmark:
    """One named measurement.

    ``setup(seed)`` builds all fixtures and returns the zero-argument
    thunk the runner times; everything expensive that is *not* the hot
    path under measurement belongs in setup.
    """

    name: str
    group: str
    setup: Callable[[int], Callable[[], object]]
    params: dict = field(default_factory=dict)


@dataclass
class BenchResult:
    """Timing + allocation measurements for one benchmark."""

    name: str
    group: str
    params: dict
    repeats: int
    warmup: int
    times: list[float]
    alloc_peak_bytes: int
    alloc_net_bytes: int
    alloc_net_blocks: int
    #: the profiled run's return value when it is a plain scalar — a
    #: bitwise determinism checksum for the benchmarked computation
    #: (loss value, simulated batch time, op count, export length, ...).
    check: float | int | bool | None = None

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def iqr(self) -> float:
        if len(self.times) < 2:
            return 0.0
        q = statistics.quantiles(self.times, n=4, method="inclusive")
        return q[2] - q[0]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "params": self.params,
            "check": self.check,
            "timing": {
                "repeats": self.repeats,
                "warmup": self.warmup,
                "median_s": self.median,
                "iqr_s": self.iqr,
                "mean_s": statistics.fmean(self.times),
                "min_s": min(self.times),
                "max_s": max(self.times),
                "samples_s": list(self.times),
            },
            "alloc": {
                "peak_bytes": self.alloc_peak_bytes,
                "net_bytes": self.alloc_net_bytes,
                "net_blocks": self.alloc_net_blocks,
            },
        }


def _seed_everything(seed: int) -> None:
    from repro.utils.seeding import set_global_seed

    np.random.seed(seed)
    set_global_seed(seed)


def run_benchmark(
    bench: Benchmark,
    repeats: int = 5,
    warmup: int = 1,
    seed: int = 0,
) -> BenchResult:
    """Measure one benchmark: warmup, timed repeats, one profiled run.

    The allocation profile runs *after* the timed repeats (tracemalloc
    slows allocation several-fold, so mixing the two would poison the
    wall-clock numbers).
    """
    if repeats < 1:
        raise ValueError(f"need at least one timed repeat, got {repeats}")
    _seed_everything(seed)
    thunk = bench.setup(seed)

    for _ in range(warmup):
        thunk()

    times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - t0)

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    value = thunk()
    current, peak = tracemalloc.get_traced_memory()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    net_blocks = sum(
        stat.count_diff for stat in after.compare_to(before, "filename")
    )
    return BenchResult(
        name=bench.name,
        group=bench.group,
        params=dict(bench.params),
        repeats=repeats,
        warmup=warmup,
        times=times,
        alloc_peak_bytes=max(peak - base, 0),
        alloc_net_bytes=current - base,
        alloc_net_blocks=net_blocks,
        check=value if isinstance(value, (bool, int, float)) else None,
    )


# --------------------------------------------------------------------- #
# catalog: the fused-op allocation gate and trace export


def _trace_export_bench(num_stages: int = 4, num_micro: int = 16, num_pipelines: int = 2) -> Benchmark:
    def setup(seed: int) -> Callable[[], object]:
        from repro.obs.trace_export import TraceExporter
        from repro.schedules import AdvanceFPSchedule, PipelineSimRunner, StageCosts
        from repro.sim import Simulator
        from repro.sim.cluster import ClusterSpec, make_cluster

        del seed
        sim = Simulator()
        cluster = make_cluster(
            sim,
            num_stages,
            spec=ClusterSpec(nodes=num_stages, gpus_per_node=1, memory_bytes=1 << 50),
        )
        costs = StageCosts(
            fwd_flops=tuple(1e9 for _ in range(num_stages)),
            act_out_bytes=tuple(1e6 for _ in range(num_stages)),
            stash_bytes=tuple(6e6 for _ in range(num_stages)),
            param_bytes=tuple(int(4e6) for _ in range(num_stages)),
        )
        runner = PipelineSimRunner(
            cluster,
            AdvanceFPSchedule(advance=2),
            costs,
            num_micro=num_micro,
            mb_size=4.0,
            num_pipelines=num_pipelines,
        )
        result = runner.run(iterations=2)
        exporter = TraceExporter(result.trace, num_devices=num_stages)

        def export() -> int:
            return len(exporter.to_json())

        return export

    return Benchmark(
        name="trace.export",
        group="obs",
        setup=setup,
        params={"K": num_stages, "M": num_micro, "N": num_pipelines, "iterations": 2},
    )


def _tensor_op_bench(op: str) -> Benchmark:
    """Micro-benchmark of one fused autograd kernel: forward + backward,
    isolated from model plumbing (the CI regression gate for the fused
    ops runs this group non-report-only)."""

    def setup(seed: int) -> Callable[[], object]:
        from repro.tensor import Tensor
        from repro.tensor import functional as F

        rng = np.random.default_rng(seed)

        def randt(*shape: int) -> Tensor:
            return Tensor(
                rng.standard_normal(shape).astype(np.float32), requires_grad=True
            )

        if op == "lstm_cell":
            T_steps, B, D, H = 16, 32, 64, 64
            x = [randt(B, D) for _ in range(T_steps)]
            wih, whh, bias = randt(4 * H, D), randt(4 * H, H), randt(4 * H)
            h0 = Tensor(np.zeros((B, H), np.float32))
            c0 = Tensor(np.zeros((B, H), np.float32))

            def run() -> float:
                for p in (wih, whh, bias, *x):
                    p.grad = None
                h, c = h0, c0
                for t in range(T_steps):
                    h, c = F.lstm_cell(x[t], h, c, wih, whh, bias, H)
                loss = h.sum() + c.sum()
                loss.backward()
                return float(loss.item())

        elif op == "attention":
            B, Hh, T_seq, dh = 8, 4, 64, 32
            q, k, v = (randt(B, Hh, T_seq, dh) for _ in range(3))
            scale = 1.0 / float(np.sqrt(dh))

            def run() -> float:
                for p in (q, k, v):
                    p.grad = None
                out = F.scaled_dot_attention(q, k, v, scale=scale)
                loss = out.sum()
                loss.backward()
                return float(loss.item())

        elif op == "linear":
            B, D, O = 256, 512, 512
            x, w, b = randt(B, D), randt(O, D), randt(O)

            def run() -> float:
                for p in (x, w, b):
                    p.grad = None
                loss = F.linear(x, w, b).sum()
                loss.backward()
                return float(loss.item())

        else:  # pragma: no cover - catalog is static
            raise KeyError(f"unknown tensor op benchmark {op!r}")

        return run

    return Benchmark(
        name=f"tensor.{op}",
        group="tensor",
        setup=setup,
        params={"op": op},
    )


def bench_catalog() -> list[Benchmark]:
    """The benchmark catalog, in run order."""
    return [
        _tensor_op_bench("lstm_cell"),
        _tensor_op_bench("attention"),
        _tensor_op_bench("linear"),
        _trace_export_bench(),
    ]


def suite_names(catalog: Sequence[Benchmark] | None = None) -> list[str]:
    """Valid ``--suite`` values: full and every group name."""
    catalog = bench_catalog() if catalog is None else catalog
    groups = sorted({b.group for b in catalog})
    return ["full", *groups]


def select_suite(
    suite: str, catalog: Sequence[Benchmark] | None = None
) -> list[Benchmark]:
    """Subset of the catalog selected by a suite name."""
    catalog = bench_catalog() if catalog is None else catalog
    if suite == "full":
        return list(catalog)
    chosen = [b for b in catalog if b.group == suite]
    if not chosen:
        raise KeyError(
            f"unknown suite {suite!r}; available: {', '.join(suite_names(catalog))}"
        )
    return chosen


# --------------------------------------------------------------------- #
# suite runner + payload


def run_suite(
    benches: Sequence[Benchmark],
    repeats: int = 5,
    warmup: int = 1,
    seed: int = 0,
    progress: Callable[[BenchResult], None] | None = None,
) -> list[BenchResult]:
    """Run ``benches`` in order and return their results."""
    results: list[BenchResult] = []
    for bench in benches:
        result = run_benchmark(bench, repeats=repeats, warmup=warmup, seed=seed)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def _git_sha() -> str | None:
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _package_version() -> str:
    try:
        import importlib.metadata

        return importlib.metadata.version("repro")
    except Exception:
        return "unknown"


def fingerprint() -> dict:
    """Environment identity stamped into every BENCH_<n>.json.

    Includes the static simulator calibration constants, so a trajectory
    records what machine and what constants produced it.
    """
    from repro.core.simcfg import SIM_CALIBRATIONS

    MIB = 2**20
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "package_version": _package_version(),
        "git_sha": _git_sha(),
        "calibration": {
            name: {
                "batch_size": cal.batch_size,
                "activation_byte_scale": cal.activation_byte_scale,
                "param_byte_scale": cal.param_byte_scale,
                "memory_capacity_mib": cal.memory_capacity_bytes / MIB,
            }
            for name, cal in SIM_CALIBRATIONS.items()
        },
    }


def to_payload(
    results: Sequence[BenchResult],
    suite: str,
    repeats: int,
    warmup: int,
    seed: int,
) -> dict:
    """The BENCH_<n>.json document for one suite run."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "repeats": repeats,
        "warmup": warmup,
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": fingerprint(),
        "benchmarks": [r.to_dict() for r in results],
    }


def next_bench_path(directory: str | Path = ".") -> Path:
    """``BENCH_<n>.json`` numbered one past the highest existing ``n``.

    Numbering after the max — not filling the first gap — keeps every new
    run sorting *after* all existing baselines even when an early file was
    deleted, so "highest n" always means "newest".  Both
    :func:`latest_bench_path` and the default ``--compare`` baseline rely
    on that ordering.
    """
    directory = Path(directory)
    taken = [
        int(m.group(1))
        for p in directory.glob("BENCH_*.json")
        if (m := _BENCH_FILE.match(p.name))
    ]
    return directory / f"BENCH_{max(taken, default=0) + 1}.json"


def latest_bench_path(directory: str | Path = ".") -> Path | None:
    """Highest-numbered ``BENCH_<n>.json`` under ``directory`` — the newest
    baseline under the numbering contract of :func:`next_bench_path` — or
    None when the directory holds no baselines at all."""
    directory = Path(directory)
    best: tuple[int, Path] | None = None
    for p in directory.glob("BENCH_*.json"):
        m = _BENCH_FILE.match(p.name)
        if m and (best is None or int(m.group(1)) > best[0]):
            best = (int(m.group(1)), p)
    return None if best is None else best[1]


def write_payload(payload: dict, out: str | Path | None = None) -> Path:
    """Write the payload; ``out`` may be a file, a directory, or None
    (auto-numbered in the current directory)."""
    if out is None:
        path = next_bench_path(".")
    else:
        out = Path(out)
        if out.suffix == ".json":
            path = out
            path.parent.mkdir(parents=True, exist_ok=True)
        else:
            out.mkdir(parents=True, exist_ok=True)
            path = next_bench_path(out)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------- #
# comparison / regression verdicts


@dataclass
class CompareRow:
    """Delta verdict for one benchmark present in both runs."""

    name: str
    base_median: float
    new_median: float
    base_peak: int
    new_peak: int
    reasons: list[str] = field(default_factory=list)

    @property
    def time_ratio(self) -> float:
        return self.new_median / self.base_median if self.base_median > 0 else math.inf

    @property
    def alloc_ratio(self) -> float:
        if self.base_peak <= 0:
            return math.inf if self.new_peak > 0 else 1.0
        return self.new_peak / self.base_peak

    @property
    def regressed(self) -> bool:
        return bool(self.reasons)


@dataclass
class CompareReport:
    """Everything ``--compare`` decides and prints."""

    threshold: float
    rows: list[CompareRow]
    only_in_baseline: list[str]
    only_in_current: list[str]
    #: wall-time threshold when it differs from ``threshold`` (else None)
    time_threshold: float | None = None

    @property
    def regressions(self) -> list[CompareRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _index_benchmarks(payload: dict) -> dict[str, dict]:
    return {b["name"]: b for b in payload.get("benchmarks", [])}


def compare_payloads(
    baseline: dict,
    current: dict,
    threshold: float = DEFAULT_THRESHOLD,
    *,
    time_threshold: float | None = None,
) -> CompareReport:
    """Compare two BENCH payloads on the benchmarks they share.

    A benchmark regresses when its median wall time or its peak
    allocation exceeds the baseline's by more than ``threshold``
    (relative).  Benchmarks present in only one payload are reported but
    never count as regressions — a one-group run compared against a full
    baseline, or a baseline holding since-deleted entries, must not fail
    on coverage alone.

    ``time_threshold`` overrides ``threshold`` for the wall-time check
    only.  Peak allocation is deterministic (array sizes, not clocks),
    so a cross-machine gate can hold allocation tight while leaving
    wall time room for the hardware mismatch — e.g. CI's fused-op gate
    compares a runner's timings against a baseline recorded elsewhere.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if time_threshold is None:
        time_threshold = threshold
    elif time_threshold < 0:
        raise ValueError(f"time_threshold must be >= 0, got {time_threshold}")
    base_idx = _index_benchmarks(baseline)
    cur_idx = _index_benchmarks(current)
    rows: list[CompareRow] = []
    for name, cur in cur_idx.items():
        base = base_idx.get(name)
        if base is None:
            continue
        row = CompareRow(
            name=name,
            base_median=base["timing"]["median_s"],
            new_median=cur["timing"]["median_s"],
            base_peak=base["alloc"]["peak_bytes"],
            new_peak=cur["alloc"]["peak_bytes"],
        )
        if row.new_median > row.base_median * (1.0 + time_threshold):
            row.reasons.append(
                f"median wall time {row.time_ratio:.2f}x baseline"
            )
        if row.new_peak > row.base_peak * (1.0 + threshold):
            row.reasons.append(
                f"peak allocation {row.alloc_ratio:.2f}x baseline"
            )
        rows.append(row)
    return CompareReport(
        threshold=threshold,
        rows=rows,
        only_in_baseline=sorted(set(base_idx) - set(cur_idx)),
        only_in_current=sorted(set(cur_idx) - set(base_idx)),
        time_threshold=None if time_threshold == threshold else time_threshold,
    )


def render_results(results: Sequence[BenchResult], title: str = "repro bench") -> str:
    """Plain-text table of one suite run."""
    rows = [
        [
            r.name,
            r.median * 1e3,
            r.iqr * 1e3,
            min(r.times) * 1e3,
            r.alloc_peak_bytes / 1024,
            r.alloc_net_bytes / 1024,
            r.alloc_net_blocks,
        ]
        for r in results
    ]
    return format_table(
        ["benchmark", "median ms", "iqr ms", "min ms", "peak KiB", "net KiB", "blocks"],
        rows,
        title=title,
    )


def render_compare(report: CompareReport) -> str:
    """Per-benchmark delta table plus coverage notes and the verdict."""
    rows = []
    for r in report.rows:
        rows.append([
            r.name,
            r.base_median * 1e3,
            r.new_median * 1e3,
            f"{(r.time_ratio - 1.0) * 100:+.1f}%",
            r.base_peak / 1024,
            r.new_peak / 1024,
            f"{(r.alloc_ratio - 1.0) * 100:+.1f}%" if math.isfinite(r.alloc_ratio) else "new",
            "REGRESSED" if r.regressed else "ok",
        ])
    lines = [
        format_table(
            ["benchmark", "base ms", "new ms", "Δ time", "base KiB", "new KiB", "Δ alloc", "verdict"],
            rows,
            title=(
                f"repro bench --compare (threshold {report.threshold:.0%}"
                + (
                    f", time {report.time_threshold:.0%}"
                    if report.time_threshold is not None
                    else ""
                )
                + ")"
            ),
        )
    ]
    if report.only_in_baseline:
        lines.append(
            f"not run here (baseline only): {', '.join(report.only_in_baseline)}"
        )
    if report.only_in_current:
        lines.append(f"new benchmarks (no baseline): {', '.join(report.only_in_current)}")
    n = len(report.regressions)
    lines.append(
        "compare: no regressions" if n == 0
        else f"compare: {n} benchmark(s) regressed beyond the {report.threshold:.0%} threshold"
    )
    return "\n".join(lines)
