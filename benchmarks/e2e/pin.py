#!/usr/bin/env python3
"""Regenerate ``expected_seed0.json``, the bitwise pins the checks use.

    python3 benchmarks/e2e/pin.py

Training pins come from one uninterrupted ``train()`` call per trainer
seed, so they also prove that the benchmark's epoch-by-epoch,
checkpointed and resumed passes follow the same trajectory.  Planning
pins record each plan and the sha256 of each scheduler event log.  The
seed ranges cover the passes a ``--seed 0`` run reaches; passes outside
them are checked against the invariants only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import workloads as w  # noqa: E402
from repro.core.simcfg import calibration_for  # noqa: E402
from repro.core.trainer import AvgPipeTrainer  # noqa: E402
from repro.models.registry import build_workload  # noqa: E402
from repro.sim.hetero import hetero_variant_names  # noqa: E402

TRAIN_SEEDS = {"train-awd": 5, "train-awd-pipelined": 8, "train-bert-pipelined": 3}
SCHED_SEEDS = 12


def train_pins(cls) -> dict:
    spec = build_workload(cls.model)
    pins = {}
    for seed in range(TRAIN_SEEDS[cls.name]):
        if cls is w.TrainAwd:
            trainer = AvgPipeTrainer(spec, seed=seed, max_epochs=cls.max_epochs,
                                     num_pipelines=w.NUM_PIPELINES)
        else:
            trainer = AvgPipeTrainer(spec, seed=seed, max_epochs=cls.epochs,
                                     num_pipelines=w.NUM_PIPELINES,
                                     partition=calibration_for(cls.model).partition(),
                                     num_micro=w.NUM_MICRO)
        pins[str(seed)] = {"history": w.hexes(trainer.train().metric_history)}
    return pins


def main() -> None:
    expected = {cls.name: train_pins(cls)
                for cls in (w.TrainAwd, w.TrainAwdPipelined, w.TrainBertPipelined)}
    expected["plan-uniform"] = {
        "plans": {f"{m}@{f}": w.uniform_plan(m, f)
                  for m, f in itertools.product(w.PLAN_MODELS, w.BUDGET_FACTORS)},
        "sched": {f"{sc}/{pol}/{seed}": w.sched_run(sc, pol, seed)["log_sha256"]
                  for seed in range(SCHED_SEEDS)
                  for sc, pol in itertools.product(w.SCHED_SCENARIOS, w.SCHED_POLICIES)},
    }
    expected["plan-hetero"] = {
        "plans": {f"{m}/{v}": w.hetero_plan(m, v)
                  for m, v in itertools.product(w.PLAN_MODELS, hetero_variant_names())},
    }
    (HERE / "expected_seed0.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
