#!/usr/bin/env python3
"""End-to-end benchmark: one workload, one seed, one process.

    python3 benchmarks/e2e/run.py --workload W --seed S [--seconds N]
        [--trace 0|1] [--scale smoke] [--out DIR]

Run from the repository root.  With ``--trace 0`` the workload is set
up five times in fresh interpreters (``setup_s`` is their median), set
up once more here, warmed up once, and then run pass after pass for
about ``--seconds``; the end-to-end metrics come from those bare passes.
With ``--trace 1`` each pass runs twice on the same inputs, bare and
then with the layer spans of ``spans.py`` installed; the per-layer
metrics come from the traced copies and the bare ones give the tracing
overhead.  Every pass's outputs are checked; the last line of standard
output is the JSON result, and the full record is written under
``--out`` (default ``benchmarks/e2e/out``).
"""

from __future__ import annotations

import os

# One BLAS thread: the end-to-end numbers time the Python layers, and a
# threaded BLAS would make them depend on what else the machine runs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIB = 2**20


def _quantile(values: list[float], q: int) -> float:
    """The q-th quartile (1..3) of ``values``, inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def _setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh-interpreter set-ups, one at a time."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-only"],
            check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        samples.append(time.perf_counter() - start)
    return samples


class Runner:
    """Runs passes of one workload and keeps the op and check tallies."""

    def __init__(self, workload, pins: dict) -> None:
        self.workload = workload
        self.pins = pins
        self.failures: list[str] = []

    def run_pass(self, k: int):
        """(wall seconds, PassResult) or None when the pass raised."""
        start = time.perf_counter()
        try:
            result = self.workload.run_pass(k)
        except Exception as exc:  # one failed op; later passes still run
            traceback.print_exc()
            self.failures.append(f"pass {k}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        self.failures += [f"pass {k}: {msg}" for msg in self.workload.check(result.record, self.pins)]
        return wall, result

    def loop(self, seconds: float, one_pass) -> None:
        """Call ``one_pass(k)`` until ``seconds`` have passed (at least once)."""
        start = time.perf_counter()
        k = 0
        while True:
            one_pass(k)
            k += 1
            if time.perf_counter() - start >= seconds:
                return


def measure(runner: Runner, seconds: float) -> tuple[dict, list]:
    passes = []

    def one_pass(k):
        out = runner.run_pass(k)
        if out is not None:
            passes.append(out)

    runner.loop(seconds, one_pass)
    if not passes:
        raise RuntimeError("no pass completed: " + "; ".join(runner.failures))
    # Every pass does the same amount of work, and on a shared machine
    # the noise only ever adds time (contention bursts slow all code by up
    # to ~1.6x for seconds at a time), so the fastest pass is the steady
    # estimate of what the code costs.
    metrics = {
        "pass_s": min(wall for wall, _ in passes),
        "step_ms_p50": 1e3 * min(_quantile(r.steps, 2) for _, r in passes),
        "step_ms_p75": 1e3 * min(_quantile(r.steps, 3) for _, r in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
    }
    detail = [{"wall_s": wall, "steps_s": r.steps, "digest": r.digest()} for wall, r in passes]
    return metrics, detail


def measure_traced(runner: Runner, seconds: float, out_dir: pathlib.Path, stem: str):
    import spans

    tracer = spans.Tracer()
    pairs = []

    def one_pass(k):
        plain = runner.run_pass(k)
        tracer.run_id = k
        kept_spans, kept_counts = len(tracer.spans), tracer.counts.copy()
        with tracer:
            traced = runner.run_pass(k)
        if plain is None or traced is None:
            # keep the trace to whole pairs so shares divide by their wall
            del tracer.spans[kept_spans:]
            tracer.counts.clear()
            tracer.counts.update(kept_counts)
            return
        if plain[1].digest() != traced[1].digest():
            runner.failures.append(f"pass {k}: traced outputs differ from untraced")
        pairs.append((plain, traced))

    runner.loop(seconds, one_pass)
    if not pairs:
        raise RuntimeError("no pass pair completed: " + "; ".join(runner.failures))
    n = len(pairs)
    wall = sum(traced[0] for _, traced in pairs)
    self_times = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    layers = {}
    for name in spans.LAYERS:
        seconds_self, calls = self_times.get(name, (0.0, 0))
        metrics[f"{name}.share"] = 100.0 * seconds_self / wall
        metrics[f"{name}.calls"] = calls / n
        layers[name] = {"self_ms_per_pass": 1e3 * seconds_self / n, "calls_per_pass": calls / n,
                        "share_pct": metrics[f"{name}.share"]}

    def per_call(count: str, layer: str) -> float:
        calls = self_times.get(layer, (0.0, 0))[1]
        return counts[count] / calls if calls else 0.0

    unattributed = wall - tracer.top_level_seconds()
    plan_chains = self_times.get("sched.plan_chain", (0.0, 0))[1]
    metrics.update({
        "core.pipeline.act_bytes": counts["core.pipeline.act_bytes"] / n,
        "core.pipeline.grad_bytes": counts["core.pipeline.grad_bytes"] / n,
        "core.elastic.floats_per_round": per_call("core.elastic.floats", "core.elastic.end_iteration"),
        "core.checkpoint.bytes_per_save": per_call("core.checkpoint.bytes", "core.checkpoint.save"),
        "core.profiler.oom_ratio": per_call("core.profiler.ooms", "core.profiler.run_setting"),
        "sim.events": counts["sim.events"] / n,
        "schedules.adaptive.probes": counts["schedules.adaptive.probes"] / n,
        "sched.plan_cache_hit_ratio": 1.0 - per_call("sched.plan_misses", "sched.plan_chain")
        if plan_chains else 0.0,
        "trace.wall_ms": 1e3 * wall / n,
        "trace.unattributed_share": 100.0 * unattributed / wall,
        # fastest against fastest, as the end-to-end metrics are taken
        "trace.overhead_ratio": min(t[0] for _, t in pairs) / min(p[0] for p, _ in pairs) - 1.0,
    })
    reference = runner.workload.reference(
        [plain[1].record for plain, _ in pairs], [plain[0] for plain, _ in pairs]
    )
    for key in ("core.trainer.epochs_to_target", "core.trainer.final_metric_spread",
                "core.trainer.sync_epochs_to_target", "core.trainer.sync_time_ratio"):
        metrics[key] = reference.get(key, 0.0)

    tracer.write_chrome_trace(out_dir / f"{stem}.trace.json")
    attributed = sum(entry[0] for entry in self_times.values())
    (out_dir / f"{stem}.layers.json").write_text(json.dumps({
        "passes": n,
        "wall_ms": 1e3 * wall,
        "attributed_ms": 1e3 * attributed,
        "unattributed_ms": 1e3 * unattributed,
        "overhead_ratio": metrics["trace.overhead_ratio"],
        "layers": layers,
        "counts": dict(counts),
        "digests": [[p[1].digest(), t[1].digest()] for p, t in pairs],
    }, indent=1, sort_keys=True))
    detail = [{"plain_wall_s": p[0], "traced_wall_s": t[0], "digest": t[1].digest()} for p, t in pairs]
    return metrics, detail


def _load_json(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: one set-up sample and a single pass")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    config = _load_json(ROOT / "BENCHMARK.json")
    args.out.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, pathlib.Path(workdir))
        if args.setup_only:
            workload.setup()
            return 0

        smoke = args.scale == "smoke"
        seconds = 0.0 if smoke else (args.seconds if args.seconds is not None else config["run_seconds"])
        pins = _load_json(HERE / "expected_seed0.json").get(args.workload, {})
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            setup_samples = []
        else:
            setup_samples = _setup_seconds(args.workload, args.seed, 1 if smoke else SETUP_REPEATS)
        workload.setup()
        workload.warmup()
        runner = Runner(workload, pins)
        if args.trace:
            measured, detail = measure_traced(runner, seconds, args.out, stem)
            wanted = config["per_layer"]
        else:
            measured, detail = measure(runner, seconds)
            measured["setup_s"] = statistics.median(setup_samples)
            wanted = config["end_to_end"]

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not runner.failures,
        "attempted": workload.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    full = dict(result, workload=args.workload, seed=args.seed, seconds=seconds, trace=args.trace,
                setup_samples_s=setup_samples, failures=runner.failures, passes=detail,
                environment={"blas_threads": BLAS_THREADS, "python": platform.python_version(),
                             "numpy": sys.modules["numpy"].__version__, "cpu_count": os.cpu_count()})
    (args.out / f"{stem}{'.traced' if args.trace else ''}.json").write_text(json.dumps(full, indent=1))
    for failure in runner.failures:
        print(f"CHECK FAILED {failure}")
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
