#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect one series file.

    python3 benchmarks/e2e/series.py --out A.json [--seeds 10] [--first-seed 0] [--traced]

Each (seed, workload) is one run of the command in BENCHMARK.json, one
after another, seeds in the outer loop so slow drift of the machine
spreads over every workload.  ``--traced`` adds one ``--trace 1`` run
per workload at the first seed.  The file records every run's last-line
result plus the environment fingerprint; ``compare.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    series = {name: {"runs": []} for name in names}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for seed in seeds:
        for name in names:
            result = run_once(config, name, seed, trace=0)
            series[name]["runs"].append(result)
            print(f"{name} seed {seed}: {json.dumps(result['metrics'])}", flush=True)
    if args.traced:
        for name in names:
            series[name]["traced"] = run_once(config, name, args.first_seed, trace=1)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.bench import fingerprint

    env = fingerprint()
    env["blas_threads"] = 1  # run.py pins every BLAS pool to one thread
    payload = {
        "environment": env,
        "run_seconds": config["run_seconds"],
        "seeds": list(seeds),
        "workloads": series,
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
