"""Pinned numerics of the stage-sliced runner on the three workloads.

Synchronous numerics do not depend on the schedule: AFAB, 1F1B and
advance-FP run the same forwards and backwards, only in a different
interleaving, and each module's RNG and each parameter's gradient
accumulation see the micro-batches in ascending order under all three.
So two batches of ``AvgPipeTrainer(partition=calibrated, num_micro=8)``
must leave byte-identical weights, reference and losses under every
synchronous schedule, and those bytes are pinned by a sha256.

PipeDream's asynchronous sweep is pinned the same way, over two
``PipeDreamTrainer`` batches (calibrated cut, M=4): the numerics behind
the PipeDream rows of Figures 11 and 14.

The synchronous digests were generated with the runner that executed each schedule's
op streams one micro-batch at a time; any later runner has to reproduce
them bit for bit.  GNMT is pinned nowhere else (the end-to-end pins cover
awd and bert, ``repro verify`` a float64 toy).  Like the end-to-end pins,
the digests depend on the BLAS kernels of the machine that made them.
"""

import hashlib

import pytest

from repro.core.simcfg import calibration_for
from repro.core.trainer import AvgPipeTrainer, PipeDreamTrainer
from repro.data.dataset import split_microbatches
from repro.models.registry import build_workload
from repro.schedules import AFABSchedule, AdvanceFPSchedule, OneFOneBSchedule

#: sha256 over the two losses, every model's weights and the reference
#: after one round (two batches, N=2), seed 0, calibrated cut, M=8.
PINNED = {
    "awd": "ecb9f550cd07d4e47cb7cce85492510f2d6352cc5207e90f41fc944bef8e9b93",
    "bert": "9455eeee707459b7958bdd6ccc1c6b9980207afc97e4556a19ed6b32d19fb8a7",
    "gnmt": "a43c9bec5f02bbed6f24155b90adfd2006230094b2664ad3385047a8cc345dd1",
}

SCHEDULES = {
    "afab": AFABSchedule,
    "1f1b": lambda: OneFOneBSchedule(versions=1),
    "advance_fp": lambda: AdvanceFPSchedule(1),
}


def round_digest(model: str, schedule) -> str:
    spec = build_workload(model)
    trainer = AvgPipeTrainer(
        spec, seed=0, max_epochs=1, num_pipelines=2,
        partition=calibration_for(model).partition(), num_micro=8, schedule=schedule,
    )
    digest = hashlib.sha256()
    batches = iter(trainer.loader)
    for pos in range(2):
        digest.update(float(trainer.step(pos, next(batches))).hex().encode())
    trainer.end_round()
    for m in trainer.models:
        for key, value in m.state_dict().items():
            digest.update(key.encode())
            digest.update(value.tobytes())
    for key, value in trainer.framework.reference.items():
        digest.update(key.encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("model", sorted(PINNED))
def test_sync_schedules_reproduce_the_pinned_round(model):
    digests = {name: round_digest(model, factory()) for name, factory in SCHEDULES.items()}
    assert set(digests.values()) == {PINNED[model]}, digests


#: sha256 over the two batch losses and the weights after two
#: ``PipeDreamTrainer`` batches, seed 0, calibrated cut, M=4.
PINNED_PIPEDREAM = {
    "awd": "28f62e4d34f8b284adf49779f31a67ce097e61f82517820a2a56ad614d9db1eb",
    "bert": "1fad273245e512217713e6998ff6c49828e97e217289344812608ee5c497d98e",
    "gnmt": "21015e3a48a961d4cc61ccb26d5e81bbcde397edae1f355b6b53facf8c97cddb",
}


def pipedream_digest(model: str) -> str:
    trainer = PipeDreamTrainer(build_workload(model), seed=0, max_epochs=1, num_micro=4)
    digest = hashlib.sha256()
    batches = iter(trainer.loader)
    for _ in range(2):
        micros = split_microbatches(next(batches), trainer.num_micro)
        digest.update(float(trainer.runner.run_batch(micros)).hex().encode())
    for key, value in trainer.model.state_dict().items():
        digest.update(key.encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("model", sorted(PINNED_PIPEDREAM))
def test_pipedream_reproduces_the_pinned_batches(model):
    assert pipedream_digest(model) == PINNED_PIPEDREAM[model]
