"""``AvgPipeTrainer.train()`` with forked workers equals the one-process loop.

With more than one CPU, ``train()`` steps pipelines 1..N−1 in forked
workers and pulls their state back when it returns.  Every test here
compares, bit for bit, the pooled trainer against the same trainer
driven by :meth:`~repro.core.trainer.AvgPipeTrainer.step` /
:meth:`~repro.core.trainer.AvgPipeTrainer.end_round` in this process:
the reference, every model, every optimizer state, every RNG stream and
the round in flight, epoch by epoch.  The CPU and thread counts are
patched so the pool runs (or does not) whatever the host has.
"""

import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import signal

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core.checkpoint import load_trainer, save_trainer
from repro.core.simcfg import calibration_for
from repro.core.trainer import AvgPipeTrainer
from repro.models.registry import build_workload
from repro.obs import MetricRegistry, TrainingTelemetry
from repro.tensor import no_grad

BATCHES = 5  # odd: the last round of every epoch is ragged for N = 2 and 3
BATCH_SIZE = 8
NUM_MICRO = 4


def small_spec(name: str):
    """The registered workload on five fixed batches of eight samples,
    evaluated by the loss on the first one (cheap, and still a function
    of the reference weights)."""
    spec = build_workload(name)
    batches = list(itertools.islice(iter(spec.make_train_loader(BATCH_SIZE, 0)), BATCHES))

    def evaluate(model):
        model.eval()
        with no_grad():
            loss = float(model.loss(batches[0]).item())
        model.train()
        return loss

    return dataclasses.replace(
        spec, make_train_loader=lambda bs, seed: batches, evaluate=evaluate,
        batch_size=BATCH_SIZE,
    )


def build(spec, runner: bool = False, **kwargs) -> AvgPipeTrainer:
    cut = dict(partition=calibration_for(spec.name).partition(), num_micro=NUM_MICRO)
    return AvgPipeTrainer(spec, seed=0, max_epochs=1, **(cut if runner else {}), **kwargs)


def digest(trainer: AvgPipeTrainer) -> str:
    """sha256 of the reference, the round in flight and every pipeline's
    weights, optimizer state (lr included) and RNG streams."""
    h = hashlib.sha256()

    def arrays(mapping):
        for key, value in mapping.items():
            h.update(str(key).encode())
            h.update(np.asarray(value).tobytes())

    arrays(trainer.framework.reference)
    round_state = trainer.framework.round_state()
    arrays(round_state.pop("accumulated"))
    for delta in round_state.pop("queued"):
        arrays(delta)
    h.update(repr(sorted(round_state.items())).encode())
    for pos in range(trainer.num_pipelines):
        state = trainer.pipeline_state(pos)
        arrays(state["model"])
        h.update(repr(state["optimizer"]["lr"]).encode())
        for slot, entry in state["optimizer"]["state"].items():
            arrays({f"{slot}/{key}": value for key, value in entry.items()})
        h.update(repr(state["rng"]).encode())
    return h.hexdigest()


def sequential_epoch(trainer: AvgPipeTrainer) -> float:
    """One epoch through step() / end_round(), as the chaos harness drives them."""
    pos = 0
    for batch in trainer.loader:
        trainer.step(pos, batch)
        pos += 1
        if pos == trainer.num_pipelines:
            trainer.end_round()
            pos = 0
    if pos:
        trainer.end_round()
    return trainer.evaluate()


def pooled_epoch(trainer: AvgPipeTrainer) -> float:
    (metric,) = trainer.train().metric_history
    assert multiprocessing.active_children() == []
    return metric


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``train()`` sees, and the number of threads this
    process runs (one by default, whatever the host's BLAS started)."""
    listdir = os.listdir

    def set_cpus(count: int, threads: int = 1) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(
            os, "listdir",
            lambda path=".": [str(i) for i in range(threads)] if path == "/proc/self/task"
            else listdir(path),
        )

    set_cpus(8)
    return set_cpus


def assert_epochs_match(spec, epochs: int = 2, runner: bool = False, **kwargs) -> None:
    sequential, pooled = build(spec, runner, **kwargs), build(spec, runner, **kwargs)
    for epoch in range(epochs):
        assert pooled_epoch(pooled) == sequential_epoch(sequential), epoch
        assert digest(pooled) == digest(sequential), epoch


@pytest.mark.parametrize("runner", [False, True], ids=["whole-model", "runner"])
@pytest.mark.parametrize("model", ["awd", "bert", "gnmt"])
def test_pool_matches_the_sequential_loop(model, runner, cpus):
    assert_epochs_match(small_spec(model), runner=runner, num_pipelines=2)


@pytest.mark.parametrize("queue_delay", [0, 1])
@pytest.mark.parametrize("num_pipelines,count", [(1, 8), (2, 2), (3, 2), (3, 3), (4, 8)])
def test_pipeline_and_cpu_counts(num_pipelines, count, queue_delay, cpus):
    """N = 1 forks nothing; N = 3 on two CPUs puts pipelines 1 and 2 in
    one worker; N = 4 on eight CPUs runs three workers, more processes
    than most test machines have cores."""
    cpus(count)
    assert_epochs_match(
        small_spec("awd"), epochs=3, num_pipelines=num_pipelines, queue_delay=queue_delay
    )


def test_one_train_call_over_several_epochs(cpus):
    """Workers live for the whole call: the epochs in between never sync."""
    spec = small_spec("bert")
    sequential = build(spec, runner=True, num_pipelines=3)
    pooled = build(spec, runner=True, num_pipelines=3)
    pooled.max_epochs = 3
    history = pooled.train().metric_history
    assert history == [sequential_epoch(sequential) for _ in range(3)]
    assert digest(pooled) == digest(sequential)


def test_checkpoint_and_membership_changes_between_calls(cpus, tmp_path):
    spec = small_spec("awd")
    sequential, pooled = build(spec, num_pipelines=3), build(spec, num_pipelines=3)

    def both(action):
        for trainer in (sequential, pooled):
            action(trainer)

    def epoch():
        assert pooled_epoch(pooled) == sequential_epoch(sequential)
        assert digest(pooled) == digest(sequential)

    epoch()
    for name, trainer in (("sequential", sequential), ("pooled", pooled)):
        save_trainer(trainer, tmp_path / f"{name}.npz")
    sequential, pooled = build(spec, num_pipelines=3), build(spec, num_pipelines=3)
    load_trainer(sequential, tmp_path / "sequential.npz")
    load_trainer(pooled, tmp_path / "pooled.npz")
    epoch()
    both(lambda t: t.evict_pipeline(1))
    epoch()
    both(lambda t: t.rejoin_pipeline())
    epoch()


def test_asgd_step_count_comes_back_from_the_workers(cpus):
    """ASGD starts its tail average at step t0; a worker's steps must
    count towards it after the pull-back, or the next call forks a
    pipeline whose count never reached t0."""
    from repro.optim import ASGD
    from repro.resilience.chaos import tiny_chaos_spec

    spec = dataclasses.replace(
        tiny_chaos_spec(), make_optimizer=lambda m: ASGD(m.parameters(), lr=0.5, t0=8)
    )
    sequential, pooled = (
        AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2) for _ in range(2)
    )
    for epoch in range(3):
        assert pooled_epoch(pooled) == sequential_epoch(sequential), epoch
        assert digest(pooled) == digest(sequential), epoch
    assert all("ax" in entry for entry in pooled.optimizers[1].state.values())


def test_telemetry_sees_what_the_sequential_loop_records(cpus):
    """Workers log their registry calls and return their weights, so the
    parent's registry — losses, α-pulls, divergence — is the one-process
    registry, series for series."""
    spec = small_spec("awd")
    registries = MetricRegistry(), MetricRegistry()
    sequential, pooled = (
        build(spec, num_pipelines=3, telemetry=TrainingTelemetry(registry))
        for registry in registries
    )
    for _ in range(2):
        assert pooled_epoch(pooled) == sequential_epoch(sequential)
        assert digest(pooled) == digest(sequential)
    assert registries[1].snapshot() == registries[0].snapshot()
    assert registries[1].get("elastic.pull_rms", model=2) is not None


@pytest.mark.parametrize("count,threads", [(1, 1), (8, 2)], ids=["one-cpu", "threaded"])
def test_no_worker_on_one_cpu_or_in_a_threaded_process(count, threads, cpus, monkeypatch):
    cpus(count, threads)

    def no_pool(*args):
        raise AssertionError("train() built a worker pool")

    monkeypatch.setattr(trainer_module, "_PipelinePool", no_pool)
    assert_epochs_match(small_spec("awd"), num_pipelines=2)


class _Deadline:
    """Fail the test, rather than hang it, if the block overruns."""

    def __init__(self, seconds: int) -> None:
        self.seconds = seconds

    def __enter__(self):
        def overrun(signum, frame):
            raise TimeoutError(f"still waiting after {self.seconds} s")

        self.previous = signal.signal(signal.SIGALRM, overrun)
        signal.alarm(self.seconds)

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


def failing_step(monkeypatch, failing_pos: int, fail):
    """Make pipeline ``failing_pos``'s step call ``fail()`` (in its worker)."""
    original = AvgPipeTrainer._local_step

    def step(self, pos, batch, finish):
        if pos == failing_pos:
            fail()
        return original(self, pos, batch, finish)

    monkeypatch.setattr(AvgPipeTrainer, "_local_step", step)


def test_worker_exception_keeps_its_type_and_names_the_pipeline(cpus, monkeypatch):
    def fail():
        raise KeyError("no such layer")

    failing_step(monkeypatch, 2, fail)
    trainer = build(small_spec("awd"), num_pipelines=3)
    with _Deadline(60), pytest.raises(KeyError, match="pipeline 2: 'no such layer'") as info:
        trainer.train()
    assert "in fail" in str(info.value.__cause__)  # the worker's traceback
    assert multiprocessing.active_children() == []


def test_killed_worker_raises_promptly(cpus, monkeypatch):
    failing_step(monkeypatch, 1, lambda: os.kill(os.getpid(), signal.SIGKILL))
    trainer = build(small_spec("awd"), num_pipelines=3)
    with _Deadline(60), pytest.raises(RuntimeError, match=r"pipeline\(s\) \[1\].*exit code -9"):
        trainer.train()
    assert multiprocessing.active_children() == []


def test_parent_failure_reaps_the_workers(cpus, monkeypatch):
    def fail():
        raise ValueError("pipeline 0 broke")

    failing_step(monkeypatch, 0, fail)
    trainer = build(small_spec("awd"), num_pipelines=2)
    with _Deadline(60), pytest.raises(ValueError, match="^pipeline 0 broke$"):
        trainer.train()
    assert multiprocessing.active_children() == []
