"""`repro calibrate`: the simulator calibration matrix and its gauges."""

from repro.cli import main
from repro.core.calibrate import run_calibration
from repro.core.simcfg import calibration_for
from repro.obs import MetricRegistry


def test_calibrate_publishes_gauges():
    registry = MetricRegistry()
    rows = run_calibration(calibration_for("awd"), registry=registry)
    assert any(r.system.startswith("avgpipe") and r.feasible for r in rows)
    gauges = {name for name, _, _ in registry.series(prefix="calibrate.")}
    assert gauges == {
        "calibrate.batch_ms", "calibrate.peak_mib", "calibrate.util", "calibrate.oom",
    }


def test_calibrate_cli_prints_matrix(capsys):
    code = main(["calibrate", "awd"])
    assert code == 0
    out = capsys.readouterr().out
    assert "calibration — awd" in out
    assert "avgpipe" in out
