"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

    pytest benchmarks/e2e/tests -q

The benchmark runs as a subprocess exactly as it is invoked for real;
the fixtures run every workload once at ``--scale smoke`` untraced and
two of them traced, and the tests read what those runs wrote.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
from collections import defaultdict

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
TRACED = ("train-awd-pipelined", "plan-uniform")


def run_bench(workload: str, out, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload, "--seed", "0",
         "--scale", "smoke", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    start = time.perf_counter()
    results = {w: run_bench(w, out, trace=0) for w in WORKLOADS}
    return out, results, time.perf_counter() - start


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, {w: run_bench(w, out, trace=1) for w in TRACED}


def test_smoke_runs_all_workloads_within_a_minute(smoke):
    _, results, seconds = smoke
    assert seconds < 60
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1


def test_traced_and_untraced_outputs_are_bitwise_identical(smoke, traced):
    smoke_out, _, _ = smoke
    traced_out, results = traced
    for workload in TRACED:
        assert results[workload]["correct"], workload
        bare = json.loads((smoke_out / f"{workload}-seed0.json").read_text())
        layers = json.loads((traced_out / f"{workload}-seed0.layers.json").read_text())
        plain_digest, traced_digest = layers["digests"][0]
        assert plain_digest == traced_digest == bare["passes"][0]["digest"]


def _self_ms_from_chrome_trace(path) -> tuple[dict, float]:
    """Per-layer self ms recomputed from interval containment alone."""
    events = sorted(json.loads(path.read_text())["traceEvents"], key=lambda e: (e["ts"], -e["dur"]))
    self_ms: dict[str, float] = defaultdict(float)
    stack: list[dict] = []
    top_ms = 0.0
    for event in events:
        end = event["ts"] + event["dur"]
        while stack and stack[-1]["ts"] + stack[-1]["dur"] <= event["ts"]:
            stack.pop()
        if stack:
            parent = stack[-1]
            assert end <= parent["ts"] + parent["dur"] + 1e-3, "span escapes its parent"
            self_ms[parent["name"]] -= event["dur"] / 1e3
        else:
            top_ms += event["dur"] / 1e3
        self_ms[event["name"]] += event["dur"] / 1e3
        stack.append(event)
    return self_ms, top_ms


@pytest.mark.parametrize("workload", TRACED)
def test_layer_self_times_sum_to_traced_wall(traced, workload):
    out, _ = traced
    layers = json.loads((out / f"{workload}-seed0.layers.json").read_text())
    wall = layers["wall_ms"]
    self_ms, top_ms = _self_ms_from_chrome_trace(out / f"{workload}-seed0.trace.json")
    passes = layers["passes"]
    for name, entry in layers["layers"].items():
        assert self_ms.get(name, 0.0) / passes == pytest.approx(
            entry["self_ms_per_pass"], rel=0.01, abs=0.01 * wall / passes
        ), name
    assert 0.0 <= layers["unattributed_ms"] < 0.05 * wall
    assert sum(self_ms.values()) + layers["unattributed_ms"] == pytest.approx(wall, rel=0.01)
    assert top_ms == pytest.approx(layers["attributed_ms"], rel=0.01)


def test_every_wrapped_attribute_is_restored():
    import spans

    tracer = spans.Tracer()
    targets = [(owner, attr) for owner, attr, _ in spans._layer_table(tracer)]
    before = [vars(owner).get(attr) for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with tracer:
            assert tracer.patch_targets() == targets
            assert all(vars(o).get(a) is not b for (o, a), b in zip(targets, before))
            raise RuntimeError("restore on error too")
    assert tracer.patch_targets() == []
    assert all(vars(o).get(a) is b for (o, a), b in zip(targets, before))
