"""End-to-end tests for ``repro report`` and the RunReport builder.

Runs the CLI once (fig02 configuration, sim phase only) into a temp
directory, then asserts over the emitted artifacts: the Chrome trace is
valid Trace Event JSON, the run report round-trips through ``json``, and
its embedded Eq.-1 decomposition matches the trace recorder exactly.
"""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs_report")
    rc = main([
        "report", "--no-train", "--workload", "bert",
        "--iterations", "2", "--out", str(out),
    ])
    assert rc == 0
    return out


def test_report_writes_all_artifacts(report_dir):
    for name in ("trace.json", "run_report.json", "run_report.md"):
        assert (report_dir / name).exists(), name


def test_trace_artifact_is_valid_chrome_trace(report_dir):
    data = json.loads((report_dir / "trace.json").read_text())
    events = data["traceEvents"]
    assert events
    for e in events:
        assert e["ph"] in ("X", "M")
        if e["ph"] == "X":
            assert {"ts", "dur", "pid", "tid", "name", "cat"} <= set(e)


def test_run_report_eq1_matches_exactly(report_dir):
    report = json.loads((report_dir / "run_report.json").read_text())
    eq1 = report["eq1"]
    assert eq1["match"] is True
    assert all(eq1["exact_match"])
    # The JSON embeds both derivations; equality survives serialization.
    assert eq1["registry"] == eq1["trace"]
    assert len(eq1["trace"]) == report["num_stages"]


def test_run_report_carries_throughput_and_memory(report_dir):
    report = json.loads((report_dir / "run_report.json").read_text())
    assert report["samples_per_second"] > 0
    mem = report["memory"]
    assert len(mem["peak_bytes"]) == report["num_stages"]
    assert all(p > 0 for p in mem["peak_bytes"])
    assert all(
        w <= p for w, p in zip(mem["weight_peak_bytes"], mem["peak_bytes"])
    )
    assert report["metrics"]  # full registry snapshot embedded


def test_markdown_report_renders_verdict(report_dir):
    text = (report_dir / "run_report.md").read_text()
    assert "matches the TraceRecorder exactly" in text
    assert "Equation-1 time decomposition" in text
    assert "MISMATCH" not in text


def test_build_run_report_with_numerics_phase():
    from repro.obs import build_run_report

    report, exporter = build_run_report(
        workload="bert", iterations=1, train_epochs=1, seed=0
    )
    assert report.eq1_match
    n = report.numerics
    assert n["rounds"] > 0
    assert n["divergence"] >= 0
    assert n["samples"] > 0
    assert "Training telemetry" in report.to_markdown()
    assert json.loads(report.to_json())["numerics"]["rounds"] == n["rounds"]
    assert "GPU 0" in exporter.device_summary()


def test_report_rejects_data_parallel_baseline():
    from repro.obs import build_run_report

    with pytest.raises(ValueError, match="pipelined baseline"):
        build_run_report(baseline="pytorch")
