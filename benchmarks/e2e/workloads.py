"""The five end-to-end workloads and the checks on their outputs.

Each workload is built from ``--seed`` alone and runs in *passes*; pass
``k`` draws its inputs from ``(seed, k)`` so any pass can be replayed
(the traced run replays every pass it measures).  A pass returns its
*steps* (the unit calls a user waits on: a training epoch, a planning
call) and a record of its outputs with floats in ``float.hex`` form,
which the checks compare bitwise against ``expected_seed0.json`` and
against invariants that hold for any seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pathlib
import random
import time
from dataclasses import dataclass, field

import numpy as np

import repro.core.checkpoint as checkpoint
from repro.core.avgpipe import AvgPipe
from repro.core.predictor import fits_memory
from repro.core.profiler import Profiler
from repro.core.simcfg import calibration_for
from repro.core.trainer import AvgPipeTrainer, SyncTrainer
from repro.core.tuner import ProfilingTuner, default_m_candidates
from repro.models.registry import build_workload
from repro.sched import run_scenario
from repro.schedules.base import AdvanceFPSchedule
from repro.sim.hetero import hetero_variant_names

PLAN_MODELS = ("gnmt", "bert", "awd")
BUDGET_FACTORS = (1.0, 1.5, 2.0)
SCHED_SCENARIOS = ("smoke", "rush", "hetero")
SCHED_POLICIES = ("fifo", "priority", "fair")
SCHED_SEEDS_PER_PASS = 3
NUM_PIPELINES = 2
NUM_MICRO = 8


@dataclass
class PassResult:
    """What one pass produced."""

    steps: list[float] = field(default_factory=list)  # seconds
    record: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(self.record, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _finite(values: list[str]) -> bool:
    return all(math.isfinite(float.fromhex(h)) for h in values)


def _state_bytes(trainer: AvgPipeTrainer) -> dict[str, bytes]:
    """Weights, reference and optimizer state of a trainer, as raw bytes."""
    out = {}
    for i, model in enumerate(trainer.models):
        for key, value in model.state_dict().items():
            out[f"model{i}/{key}"] = value.tobytes()
    for key, value in trainer.framework.reference.items():
        out[f"reference/{key}"] = value.tobytes()
    for i, opt in enumerate(trainer.optimizers):
        for slot, entry in opt.state_dict()["state"].items():
            for key, value in entry.items():
                out[f"opt{i}/{slot}/{key}"] = np.asarray(value).tobytes()
    return out


class Workload:
    """Base: ``setup`` builds inputs, ``warmup`` runs once untimed.

    ``attempted`` counts the operations passes have started (trainer
    ``train()`` calls, checkpoint saves and loads, plan calls, scheduler
    runs); each is counted before it runs, so one that raises counts too.
    """

    name = ""

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int) -> PassResult:
        raise NotImplementedError

    def check(self, record: dict, pins: dict) -> list[str]:
        """Failure messages for one pass record (empty = all good)."""
        raise NotImplementedError

    def reference(self, records: list[dict], pass_seconds: list[float]) -> dict[str, float]:
        """Reference values reported next to the traced per-layer metrics."""
        return {}


# ---------------------------------------------------------------------- #
# training


class _Training(Workload):
    model = ""

    def setup(self) -> None:
        self.spec = build_workload(self.model)
        # the synthetic dataset is generated (and cached) on first use
        self.spec.make_train_loader(self.spec.batch_size, self.seed)

    def _trainer(self, seed: int) -> AvgPipeTrainer:
        return AvgPipeTrainer(
            self.spec, seed=seed, max_epochs=1, num_pipelines=NUM_PIPELINES
        )

    def warmup(self) -> None:
        trainer = self._trainer(self.seed)
        trainer.loader = list(itertools.islice(iter(trainer.loader), 2))
        trainer.train()


class TrainAwd(_Training):
    """AvgPipe N=2 on awd, whole-model path, epoch by epoch to the
    registered target, checkpointing every epoch and resuming once into
    a fresh trainer."""

    name = "train-awd"
    model = "awd"
    max_epochs = 40
    resume_after = 8

    def warmup(self) -> None:
        super().warmup()
        trainer = self._trainer(self.seed)
        path = self.workdir / "warmup.npz"
        checkpoint.save_trainer(trainer, path)
        checkpoint.load_trainer(trainer, path)

    def run_pass(self, k: int) -> PassResult:
        seed = self.seed + k
        out = PassResult()
        path = self.workdir / f"{self.name}.npz"
        trainer = self._trainer(seed)
        history: list[float] = []
        reached = False
        resume_exact = None
        for epoch in range(1, self.max_epochs + 1):
            start = time.perf_counter()
            if epoch == self.resume_after + 1:
                fresh = self._trainer(seed)
                self.attempted += 1
                checkpoint.load_trainer(fresh, path)
                resume_exact = _state_bytes(fresh) == _state_bytes(trainer)
                trainer = fresh
            self.attempted += 1
            result = trainer.train()
            history.extend(result.metric_history)
            self.attempted += 1
            checkpoint.save_trainer(trainer, path)
            out.steps.append(time.perf_counter() - start)
            if result.reached_target:
                reached = True
                break
        out.record = {
            "seed": seed,
            "history": hexes(history),
            "reached": reached,
            "resume_exact": resume_exact,
        }
        return out

    def check(self, record: dict, pins: dict) -> list[str]:
        failures = []
        if not _finite(record["history"]):
            failures.append("non-finite validation loss")
        if not record["reached"]:
            failures.append(f"target not reached in {self.max_epochs} epochs")
        if record["resume_exact"] is not True:
            failures.append("resumed trainer state differs from the saved one")
        pin = pins.get(str(record["seed"]))
        if pin is not None and pin["history"] != record["history"]:
            failures.append("history differs from the uninterrupted pinned run")
        return failures

    def reference(self, records: list[dict], pass_seconds: list[float]) -> dict[str, float]:
        start = time.perf_counter()
        sync = SyncTrainer(self.spec, seed=self.seed, max_epochs=self.max_epochs).train()
        sync_seconds = time.perf_counter() - start
        finals = {r["seed"]: float.fromhex(r["history"][-1]) for r in records}
        return {
            "core.trainer.epochs_to_target": float(np.median([len(r["history"]) for r in records])),
            "core.trainer.final_metric_spread": max(finals.values()) - min(finals.values()),
            "core.trainer.sync_epochs_to_target": float(sync.epochs_to_target),
            "core.trainer.sync_time_ratio": sync_seconds / min(pass_seconds),
        }


class TrainPipelined(_Training):
    """AvgPipe N=2 through the faithful stage-sliced runner on the
    workload's calibrated cut, M micro-batches, fixed epochs per pass."""

    epochs = 1

    def setup(self) -> None:
        super().setup()
        self.partition = calibration_for(self.model).partition()

    def _trainer(self, seed: int) -> AvgPipeTrainer:
        return AvgPipeTrainer(
            self.spec, seed=seed, max_epochs=1, num_pipelines=NUM_PIPELINES,
            partition=self.partition, num_micro=NUM_MICRO,
        )

    def run_pass(self, k: int) -> PassResult:
        seed = self.seed + k
        out = PassResult()
        trainer = self._trainer(seed)
        history: list[float] = []
        for _ in range(self.epochs):
            start = time.perf_counter()
            self.attempted += 1
            history.extend(trainer.train().metric_history)
            out.steps.append(time.perf_counter() - start)
        out.record = {"seed": seed, "history": hexes(history)}
        return out

    def check(self, record: dict, pins: dict) -> list[str]:
        failures = []
        if not _finite(record["history"]):
            failures.append("non-finite validation metric")
        pin = pins.get(str(record["seed"]))
        if pin is not None and pin["history"] != record["history"]:
            failures.append("history differs from the uninterrupted pinned run")
        return failures


class TrainAwdPipelined(TrainPipelined):
    name = "train-awd-pipelined"
    model = "awd"
    epochs = 2


class TrainBertPipelined(TrainPipelined):
    name = "train-bert-pipelined"
    model = "bert"
    epochs = 1


# ---------------------------------------------------------------------- #
# planning


def uniform_plan(model: str, factor: float) -> dict:
    """``AvgPipe(model).plan`` at ``factor`` x the device budget, simulated."""
    planner = AvgPipe(model)
    limit = planner.calibration.memory_capacity_bytes * factor
    plan = planner.plan(memory_limit_bytes=limit)
    sim = planner.simulate(plan)
    prediction = plan.prediction
    return {
        "m": plan.num_micro,
        "n": plan.num_pipelines,
        "advance": plan.advance,
        "boundaries": list(plan.partition.boundaries),
        "placement": list(range(plan.partition.num_stages)),
        "batch_time": "oom" if sim.oom is not None else sim.batch_time.hex(),
        "fits": prediction is not None and prediction.peak_memory <= limit,
    }


def hetero_plan(model: str, variant: str) -> dict:
    """Balanced cut + placement for a canned variant, then (M, N) tuning
    against the variant's per-device memory."""
    cal = calibration_for(model)
    costs = cal.layer_costs()
    partition, placement = cal.hetero_plan(variant, costs, with_memory_caps=True)
    cspec = cal.cluster_spec(variant)
    profiler = Profiler(
        costs, partition, AdvanceFPSchedule(advance=0), cspec, cal.batch_size,
        activation_byte_scale=cal.activation_byte_scale,
        param_byte_scale=cal.param_byte_scale,
        stash_multiplier=cal.stash_multiplier,
        optimizer_state_factor=cal.optimizer_state_factor,
        with_reference_model=True,
        placement=placement,
    )
    caps = cspec.memory_vector()
    outcome = ProfilingTuner(profiler, caps).tune(
        m_candidates=default_m_candidates(cal.batch_size)
    )
    chosen = [p for p in outcome.details if (p.m, p.n) == (outcome.m, outcome.n)]
    return {
        "m": outcome.m,
        "n": outcome.n,
        "boundaries": list(partition.boundaries),
        "placement": list(placement),
        "batch_time": outcome.measured_batch_time.hex(),
        "fits": bool(chosen) and fits_memory(chosen[0].f_total, [caps[d] for d in placement]),
    }


def sched_run(scenario: str, policy: str, seed: int) -> dict:
    result = run_scenario(scenario, policy, seed)
    return {
        "log_sha256": hashlib.sha256(result.log_text().encode()).hexdigest(),
        "terminal": all(job.is_terminal for job in result.jobs),
    }


def _check_plans(plans: dict, pinned: dict) -> list[str]:
    failures = []
    for key, plan in plans.items():
        if not plan["fits"]:
            failures.append(f"{key}: predicted peak exceeds the budget")
        if key in pinned and pinned[key] != plan:
            failures.append(f"{key}: plan differs from the pinned one")
    return failures


class PlanUniform(Workload):
    """AvgPipe.plan + simulate over 3 models x 3 budgets, plus scheduler
    scenarios x policies at three seeds per pass."""

    name = "plan-uniform"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.calls = list(itertools.product(PLAN_MODELS, BUDGET_FACTORS))
        rng.shuffle(self.calls)
        self.sched = list(itertools.product(SCHED_SCENARIOS, SCHED_POLICIES))
        rng.shuffle(self.sched)

    def warmup(self) -> None:
        # a model's first planning call runs up to ~1.6x slower than later ones
        for model in PLAN_MODELS:
            uniform_plan(model, 1.0)
        for scenario in SCHED_SCENARIOS:
            sched_run(scenario, "fifo", self.seed)

    def run_pass(self, k: int) -> PassResult:
        out = PassResult()
        plans, logs = {}, {}
        for model, factor in self.calls:
            start = time.perf_counter()
            self.attempted += 1
            plans[f"{model}@{factor}"] = uniform_plan(model, factor)
            out.steps.append(time.perf_counter() - start)
        for seed in range(self.seed, self.seed + SCHED_SEEDS_PER_PASS):
            for scenario, policy in self.sched:
                self.attempted += 1
                logs[f"{scenario}/{policy}/{seed}"] = sched_run(scenario, policy, seed)
        out.record = {"plans": plans, "sched": logs}
        return out

    def check(self, record: dict, pins: dict) -> list[str]:
        failures = _check_plans(record["plans"], pins.get("plans", {}))
        pinned = pins.get("sched", {})
        for key, run in record["sched"].items():
            if not run["terminal"]:
                failures.append(f"{key}: a job ended in a non-terminal state")
            if key in pinned and pinned[key] != run["log_sha256"]:
                failures.append(f"{key}: event log differs from the pinned one")
        return failures


class PlanHetero(Workload):
    """hetero_plan + ProfilingTuner over 3 models x 3 canned variants."""

    name = "plan-hetero"

    def setup(self) -> None:
        self.calls = list(itertools.product(PLAN_MODELS, hetero_variant_names()))
        random.Random(self.seed).shuffle(self.calls)

    def warmup(self) -> None:
        for model in PLAN_MODELS:
            hetero_plan(model, hetero_variant_names()[0])

    def run_pass(self, k: int) -> PassResult:
        out = PassResult()
        plans = {}
        for model, variant in self.calls:
            start = time.perf_counter()
            self.attempted += 1
            plans[f"{model}/{variant}"] = hetero_plan(model, variant)
            out.steps.append(time.perf_counter() - start)
        out.record = {"plans": plans}
        return out

    def check(self, record: dict, pins: dict) -> list[str]:
        return _check_plans(record["plans"], pins.get("plans", {}))


WORKLOADS = {
    cls.name: cls
    for cls in (TrainAwd, TrainAwdPipelined, TrainBertPipelined, PlanUniform, PlanHetero)
}
