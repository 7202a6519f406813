"""Calibration matrix: measure every baseline + AvgPipe candidate on a
workload's simulated cluster, so the :mod:`repro.core.simcfg` constants
can be tuned against the paper's reported regimes.

It is a library and the ``repro calibrate`` CLI command, whose measured
numbers are published as ``calibrate.*`` registry gauges:

* ``calibrate.batch_ms{workload,system}`` — simulated milliseconds per
  batch for each feasible system/setting;
* ``calibrate.peak_mib{workload,system}`` — peak device memory;
* ``calibrate.util{workload,system}`` — average GPU utilization;
* ``calibrate.oom{workload,system}`` — 1.0 when the setting OOMs.

``repro calibrate --json`` prints the gauge snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.simcfg import SimCalibration, calibration_for

__all__ = [
    "CalibrationRow",
    "calibration_with_overrides",
    "render_calibration",
    "run_calibration",
]

MIB = 2**20

#: (M, N) grid of AvgPipe candidate settings the matrix sweeps
_AVGPIPE_SETTINGS: tuple[tuple[int, int], ...] = (
    (64, 2), (64, 3), (32, 2), (32, 3), (16, 2), (16, 3), (8, 2), (4, 2), (1, 2),
)


@dataclass
class CalibrationRow:
    """One measured system/setting on one workload's cluster."""

    workload: str
    system: str
    num_micro: int | None
    batch_ms: float | None
    peak_mib: float | None
    utilization: float | None
    oom: bool = False
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.error is None


def _publish(registry, row: CalibrationRow) -> None:
    if registry is None or not row.feasible:
        return
    labels = {"workload": row.workload, "system": row.system}
    registry.gauge("calibrate.batch_ms", **labels).set(row.batch_ms)
    registry.gauge("calibrate.peak_mib", **labels).set(row.peak_mib)
    registry.gauge("calibrate.util", **labels).set(row.utilization)
    registry.gauge("calibrate.oom", **labels).set(1.0 if row.oom else 0.0)


def run_calibration(
    cal: SimCalibration,
    registry=None,
    avgpipe_settings: tuple[tuple[int, int], ...] = _AVGPIPE_SETTINGS,
) -> list[CalibrationRow]:
    """Measure all baselines + AvgPipe candidates on ``cal``'s cluster.

    Returns one row per attempted setting; measured values for feasible
    rows are also published as ``calibrate.*`` gauges when a registry is
    passed.
    """
    from repro.baselines import (
        BASELINE_SYSTEMS,
        choose_baseline_micro,
        simulate_baseline,
    )
    from repro.schedules.base import AdvanceFPSchedule

    rows: list[CalibrationRow] = []
    for name, system in BASELINE_SYSTEMS.items():
        try:
            if system.schedule is None:
                m = None
                res = simulate_baseline(system, cal)
            else:
                m = choose_baseline_micro(system, cal)
                res = simulate_baseline(system, cal, num_micro=m)
            row = CalibrationRow(
                workload=cal.workload,
                system=name,
                num_micro=m,
                batch_ms=res.batch_time * 1e3,
                peak_mib=max(res.peak_memory) / MIB,
                utilization=res.avg_utilization,
                oom=res.oom is not None,
            )
        except Exception as exc:  # infeasible setting, not a bug
            row = CalibrationRow(
                workload=cal.workload, system=name, num_micro=None,
                batch_ms=None, peak_mib=None, utilization=None,
                error=type(exc).__name__,
            )
        rows.append(row)
        _publish(registry, row)

    profiler = cal.profiler(AdvanceFPSchedule(2))
    for m, n in avgpipe_settings:
        if cal.batch_size % m:
            continue
        res = profiler.run_setting(m, n, iterations=2)
        row = CalibrationRow(
            workload=cal.workload,
            system=f"avgpipe M={m} N={n}",
            num_micro=m,
            batch_ms=res.batch_time * 1e3,
            peak_mib=max(res.peak_memory) / MIB,
            utilization=res.avg_utilization,
            oom=res.oom is not None,
        )
        rows.append(row)
        _publish(registry, row)
    return rows


def render_calibration(cal: SimCalibration, rows: list[CalibrationRow]) -> str:
    """The plain-text matrix ``repro calibrate`` prints."""
    from repro.utils import format_table

    table = []
    for r in rows:
        if not r.feasible:
            table.append([r.system, "-", "-", "-", "-", f"infeasible ({r.error})"])
            continue
        table.append([
            r.system,
            r.num_micro if r.num_micro is not None else "-",
            round(r.batch_ms, 1),
            round(r.peak_mib, 1),
            round(r.utilization, 2),
            "OOM!" if r.oom else "",
        ])
    title = (
        f"calibration — {cal.workload} "
        f"(act={cal.activation_byte_scale} param={cal.param_byte_scale} "
        f"cap={cal.memory_capacity_bytes / MIB:.0f} MiB, "
        f"partition {cal.partition().boundaries})"
    )
    return format_table(
        ["system", "M", "batch ms", "peak MiB", "util", "note"], table, title=title
    )


def calibration_with_overrides(
    workload: str,
    activation_byte_scale: float | None = None,
    param_byte_scale: float | None = None,
    memory_capacity_mib: float | None = None,
) -> SimCalibration:
    """A shipped calibration with the CLI's tuning knobs applied."""
    cal = calibration_for(workload)
    if activation_byte_scale is not None:
        cal = replace(cal, activation_byte_scale=float(activation_byte_scale))
    if param_byte_scale is not None:
        cal = replace(cal, param_byte_scale=float(param_byte_scale))
    if memory_capacity_mib is not None:
        cal = replace(cal, memory_capacity_bytes=int(memory_capacity_mib * MIB))
    return cal
