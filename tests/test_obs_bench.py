"""`repro bench` harness tests.

Four properties the benchmark subsystem guarantees:

* the catalog keeps every entry the committed ``BENCH_2.json`` gates,
  under the same name and params;
* the BENCH_<n>.json document is deterministic across two runs in the
  same environment once timings and allocation jitter are excluded —
  including each benchmark's ``check`` value, which is a *bitwise*
  checksum of the benchmarked computation;
* ``--compare`` is a regression gate: self-compare (file vs itself)
  exits 0, an injected >= 2x slowdown exits 1, ``--report-only``
  never fails the exit code, and entries only the baseline holds are
  listed, not failed;
* the harness is observation-only: running a benchmark under
  tracemalloc produces bitwise the same numerics as calling the same
  thunk bare.
"""

import copy
import json
import pathlib

import pytest

from repro.cli import main
from repro.obs import MetricRegistry
from repro.obs.bench import (
    Benchmark,
    bench_catalog,
    compare_payloads,
    latest_bench_path,
    next_bench_path,
    render_compare,
    run_benchmark,
    run_suite,
    select_suite,
    suite_names,
    to_payload,
    write_payload,
    _seed_everything,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _catalog_by_name() -> dict[str, Benchmark]:
    return {b.name: b for b in bench_catalog()}


def _fast_payload(repeats: int = 1) -> dict:
    """A real (but cheap) suite run: the 'tensor' group."""
    results = run_suite(select_suite("tensor"), repeats=repeats, warmup=0, seed=0)
    return to_payload(results, "tensor", repeats, 0, 0)


def _strip_volatile(payload: dict) -> dict:
    """Everything that may differ between two runs on one machine."""
    out = copy.deepcopy(payload)
    out.pop("timestamp", None)
    for bench in out["benchmarks"]:
        bench.pop("timing", None)
        bench.pop("alloc", None)
    return out


# --------------------------------------------------------------------- #
# catalog / suites


def test_catalog_covers_the_hot_paths():
    # the fused-op allocation gate and trace export, nothing the e2e
    # benchmark already times
    catalog = _catalog_by_name()
    assert set(catalog) == {
        "tensor.lstm_cell", "tensor.attention", "tensor.linear", "trace.export",
    }
    # CI gates these against the committed baseline: same names, same params
    baseline = {
        b["name"]: b
        for b in json.loads((ROOT / "BENCH_2.json").read_text())["benchmarks"]
    }
    for name, bench in catalog.items():
        assert baseline[name]["group"] == bench.group
        assert baseline[name]["params"] == bench.params


def test_suite_selection():
    assert [b.name for b in select_suite("full")] == [b.name for b in bench_catalog()]
    assert {b.group for b in select_suite("tensor")} == {"tensor"}
    assert [b.name for b in select_suite("obs")] == ["trace.export"]
    assert suite_names() == ["full", "obs", "tensor"]
    for gone in ("nope", "smoke", "sched", "core"):
        with pytest.raises(KeyError):
            select_suite(gone)


def test_next_bench_path_numbering(tmp_path):
    assert next_bench_path(tmp_path).name == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_7.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")  # non-matching: ignored
    assert next_bench_path(tmp_path).name == "BENCH_8.json"


def test_next_bench_path_numbers_past_gaps(tmp_path):
    # A deleted early baseline must not make a *new* run land in the gap
    # below the newest file: number after the max, not at the first hole.
    (tmp_path / "BENCH_2.json").write_text("{}")
    (tmp_path / "BENCH_5.json").write_text("{}")
    assert next_bench_path(tmp_path).name == "BENCH_6.json"


def test_latest_bench_path_picks_highest_n(tmp_path):
    assert latest_bench_path(tmp_path) is None
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")   # gap at 2: irrelevant
    (tmp_path / "BENCH_10.json").write_text("{}")  # numeric, not lexicographic
    (tmp_path / "BENCH_x.json").write_text("{}")   # non-matching: ignored
    assert latest_bench_path(tmp_path).name == "BENCH_10.json"


# --------------------------------------------------------------------- #
# schema determinism


def test_payload_schema_deterministic_across_runs():
    first = _fast_payload()
    second = _fast_payload()
    assert _strip_volatile(first) == _strip_volatile(second)
    # and the stripped document still carries the full identity: schema
    # tag, environment fingerprint, params and the bitwise check values
    doc = _strip_volatile(first)
    assert doc["schema"] == "repro.obs.bench/v1"
    assert doc["environment"]["python"]
    assert doc["environment"]["calibration"]["awd"]["batch_size"] == 40
    for bench in doc["benchmarks"]:
        assert bench["name"] and bench["group"]
        assert isinstance(bench["check"], float)


def test_payload_contents(tmp_path):
    payload = _fast_payload()
    for bench in payload["benchmarks"]:
        timing = bench["timing"]
        assert timing["repeats"] == len(timing["samples_s"]) == 1
        assert timing["median_s"] > 0
        assert timing["min_s"] <= timing["median_s"] <= timing["max_s"]
        assert bench["alloc"]["peak_bytes"] >= 0
    path = write_payload(payload, tmp_path)
    assert path.name == "BENCH_1.json"
    assert json.loads(path.read_text()) == payload


# --------------------------------------------------------------------- #
# compare verdicts


def _synthetic_payload(**medians_and_peaks) -> dict:
    benches = []
    for name, (median, peak) in medians_and_peaks.items():
        benches.append({
            "name": name,
            "group": "x",
            "params": {},
            "check": None,
            "timing": {"repeats": 3, "warmup": 1, "median_s": median,
                       "iqr_s": 0.0, "mean_s": median, "min_s": median,
                       "max_s": median, "samples_s": [median] * 3},
            "alloc": {"peak_bytes": peak, "net_bytes": 0, "net_blocks": 0},
        })
    return {"schema": "repro.obs.bench/v1", "suite": "x", "repeats": 3,
            "warmup": 1, "seed": 0, "environment": {}, "benchmarks": benches}


def test_compare_flags_time_and_alloc_regressions():
    base = _synthetic_payload(a=(1.0, 1000), b=(1.0, 1000), c=(1.0, 1000))
    cur = _synthetic_payload(a=(2.0, 1000),   # 2x slower
                             b=(1.0, 2000),   # 2x more peak allocation
                             c=(1.2, 1100))   # inside the 25% threshold
    report = compare_payloads(base, cur)
    verdicts = {r.name: r.regressed for r in report.rows}
    assert verdicts == {"a": True, "b": True, "c": False}
    a = next(r for r in report.rows if r.name == "a")
    assert a.time_ratio == pytest.approx(2.0)
    assert "wall time" in a.reasons[0]


def test_compare_ignores_disjoint_benchmarks():
    base = _synthetic_payload(a=(1.0, 1000), only_base=(1.0, 1000))
    cur = _synthetic_payload(a=(1.0, 1000), only_cur=(99.0, 1000))
    report = compare_payloads(base, cur)
    assert report.ok
    assert report.only_in_baseline == ["only_base"]
    assert report.only_in_current == ["only_cur"]


def test_compare_threshold_is_configurable():
    base = _synthetic_payload(a=(1.0, 1000))
    cur = _synthetic_payload(a=(1.2, 1000))
    assert compare_payloads(base, cur, threshold=0.25).ok
    assert not compare_payloads(base, cur, threshold=0.1).ok
    with pytest.raises(ValueError):
        compare_payloads(base, cur, threshold=-1)


def test_compare_time_threshold_splits_from_alloc():
    # 3x slower but identical allocation: a tight shared threshold flags
    # it, a wide time_threshold tolerates it (cross-machine gate) while
    # the alloc gate stays at the shared threshold.
    base = _synthetic_payload(a=(1.0, 1000), b=(1.0, 1000))
    cur = _synthetic_payload(a=(3.0, 1000),   # 3x slower, same alloc
                             b=(1.0, 1800))   # same speed, 1.8x alloc
    assert not compare_payloads(base, cur, threshold=0.5).ok
    report = compare_payloads(base, cur, threshold=0.5, time_threshold=4.0)
    verdicts = {r.name: r.regressed for r in report.rows}
    assert verdicts == {"a": False, "b": True}
    assert report.time_threshold == 4.0
    assert "time 400%" in render_compare(report)
    # explicit time_threshold equal to threshold behaves like the default
    same = compare_payloads(base, cur, threshold=0.5, time_threshold=0.5)
    assert same.time_threshold is None
    with pytest.raises(ValueError):
        compare_payloads(base, cur, time_threshold=-0.1)


# --------------------------------------------------------------------- #
# CLI: self-compare exits 0, injected 2x slowdown exits 1


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    payload = _fast_payload()
    return write_payload(payload, tmp / "BENCH_1.json")


def test_cli_self_compare_exits_zero(bench_file, capsys):
    code = main(["bench", "--input", str(bench_file), "--compare", str(bench_file)])
    assert code == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_injected_slowdown_exits_nonzero(bench_file, tmp_path, capsys):
    baseline = json.loads(bench_file.read_text())
    for bench in baseline["benchmarks"]:
        # an injected 2x slowdown: the current run's medians are twice
        # the baseline's
        bench["timing"]["median_s"] /= 2.0
    slow_base = tmp_path / "BENCH_base.json"
    slow_base.write_text(json.dumps(baseline))
    code = main(["bench", "--input", str(bench_file), "--compare", str(slow_base)])
    assert code == 1
    assert "REGRESSED" in capsys.readouterr().out

    # report-only mode prints the same verdicts but never fails
    code = main(["bench", "--input", str(bench_file), "--compare", str(slow_base),
                 "--report-only"])
    assert code == 0


def test_compare_lists_deleted_entries_as_baseline_only(bench_file):
    """An older baseline that still holds entries the catalog no longer
    runs stays readable: they are listed as baseline-only, never compared."""
    baseline = json.loads((ROOT / "BENCH_2.json").read_text())
    report = compare_payloads(baseline, json.loads(bench_file.read_text()))
    assert [r.name for r in report.rows] == [b.name for b in select_suite("tensor")]
    assert "model.step.awd" in report.only_in_baseline
    assert "sched.gen.1f1b" in report.only_in_baseline
    assert not report.only_in_current
    assert "not run here (baseline only): checkpoint.roundtrip" in render_compare(report)


def test_cli_bare_compare_uses_newest_baseline(bench_file, tmp_path, monkeypatch, capsys):
    """Bare ``--compare`` resolves to the highest-numbered BENCH_<n>.json."""
    monkeypatch.chdir(tmp_path)
    payload = json.loads(bench_file.read_text())
    # Decoy baseline at n=1 whose medians are halved (the current run
    # would read as a 2x regression against it), real baseline at n=3
    # with a gap at 2: only the newest file self-compares clean.
    decoy = copy.deepcopy(payload)
    for bench in decoy["benchmarks"]:
        bench["timing"]["median_s"] /= 2.0
    (tmp_path / "BENCH_1.json").write_text(json.dumps(decoy))
    (tmp_path / "BENCH_3.json").write_text(json.dumps(payload))
    code = main(["bench", "--input", str(bench_file), "--compare"])
    out = capsys.readouterr().out
    assert code == 0
    assert "BENCH_3.json" in out
    assert "no regressions" in out


def test_cli_bare_compare_without_baseline_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--input", "unused.json", "--compare"])
    assert code == 2
    assert "no BENCH_<n>.json baseline" in capsys.readouterr().out


def test_cli_runs_and_writes(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["bench", "--suite", "obs", "--repeats", "1", "--warmup", "0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "obs"
    assert len(payload["benchmarks"]) == len(select_suite("obs"))
    assert "repro bench" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# instrumentation is observation-only


def test_instrumented_run_is_bitwise_identical_to_bare():
    """The harness (timers + tracemalloc) must not perturb the
    computation it measures: replaying the same seeded thunk the same
    number of times bare yields bitwise the same scalar."""
    bench = _catalog_by_name()["tensor.lstm_cell"]
    repeats, warmup = 2, 1
    result = run_benchmark(bench, repeats=repeats, warmup=warmup, seed=0)
    assert isinstance(result.check, float)
    assert len(result.times) == repeats

    # bare replay: same seeding, same call count (warmup + timed + alloc)
    _seed_everything(0)
    thunk = bench.setup(0)
    for _ in range(warmup + repeats):
        thunk()
    bare = thunk()
    assert bare == result.check  # bitwise, not approximately


def test_run_benchmark_rejects_zero_repeats():
    bench = _catalog_by_name()["trace.export"]
    with pytest.raises(ValueError):
        run_benchmark(bench, repeats=0)


# --------------------------------------------------------------------- #
# repro calibrate


def test_calibrate_publishes_gauges():
    from repro.core.calibrate import run_calibration
    from repro.core.simcfg import calibration_for

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
