"""One PipeDream batch, computed by hand in plain NumPy.

The convention (PipeDream, arXiv 1806.03377): every micro-batch is a
minibatch that its stage applies at the configured learning rate, with
no 1/M scale, and every stage is a separate worker that clips its own
gradient norm.  The runner and the version-replay oracle are each held
against these numbers on their own, so they cannot agree on a wrong
convention.

The toy model is two ``tanh(x Wᵀ + b)`` layers and a mean-squared-error
head, cut into K=2 stages of one affine layer each, with M=2
micro-batches and plain SGD.  ``PipeDreamSchedule`` gives stage 0 the
stream F0 F1 B0 B1 and stage 1 the stream F0 B0 F1 B1, so micro-batch 1
runs forward under stage 0's initial weights and stage 1's weights after
one update; each backward is followed by that stage's step.  The clip
binds on stage 1's first gradient but not on stage 0's, so one global
norm over both stages would give other numbers too.
"""

import numpy as np
import pytest

from repro.core.pipeline import PipelinedRunner
from repro.graph.partitioner import Partition
from repro.optim import SGD
from repro.schedules import PipeDreamSchedule
from repro.verify.oracle import make_toy_model, run_async_oracle, toy_batch

LR = 0.3
CLIP = 0.5
PARTITION = Partition((0, 1, 3))  # stage 1 also hosts the loss head


def weights(model):
    return [(layer.fc.weight.data.copy(), layer.fc.bias.data.copy()) for layer in model.layers[:2]]


def forward_backward(w, mb):
    """Loss and per-layer (dW, db) of one micro-batch under weights ``w``."""
    (w0, b0), (w1, b1) = w
    x, y = mb["x"], mb["y"]
    h0 = np.tanh(x @ w0.T + b0)
    h1 = np.tanh(h0 @ w1.T + b1)
    loss = np.mean((h1 - y) ** 2)
    d1 = 2.0 * (h1 - y) / h1.size * (1.0 - h1 ** 2)
    d0 = (d1 @ w1) * (1.0 - h0 ** 2)
    return loss, [(d0.T @ x, d0.sum(axis=0)), (d1.T @ h0, d1.sum(axis=0))]


def norm(grad):
    return np.sqrt(sum(float((g ** 2).sum()) for g in grad))


def sgd_step(layer, grad):
    """One stage's update: clip the stage's own gradient norm, full LR."""
    scale = CLIP / norm(grad) if norm(grad) > CLIP else 1.0
    return tuple(p - LR * (g * scale) for p, g in zip(layer, grad))


def hand_computed(initial, micros):
    """Loss mean and final weights of the batch, stage by stage."""
    stage0 = [(op.kind, op.micro) for op in PipeDreamSchedule().stage_ops(0, 2, 2)]
    stage1 = [(op.kind, op.micro) for op in PipeDreamSchedule().stage_ops(1, 2, 2)]
    assert stage0 == [("fwd", 0), ("fwd", 1), ("bwd", 0), ("bwd", 1)]
    assert stage1 == [("fwd", 0), ("bwd", 0), ("fwd", 1), ("bwd", 1)]

    w0_v0, w1_v0 = initial
    # Micro 0 runs under version 0 on both stages.
    loss0, (g00, g01) = forward_backward([w0_v0, w1_v0], micros[0])
    assert norm(g00) < CLIP < norm(g01)
    w1_v1 = sgd_step(w1_v0, g01)  # stage 1: B0 then its step
    # Micro 1: stage 0 still at version 0 (F1 precedes B0), stage 1 at version 1.
    loss1, (g10, g11) = forward_backward([w0_v0, w1_v1], micros[1])
    w1_v2 = sgd_step(w1_v1, g11)
    w0_v1 = sgd_step(w0_v0, g00)  # stage 0: B0, B1 with the stashed version-0 gradients
    w0_v2 = sgd_step(w0_v1, g10)
    return (loss0 + loss1) / 2, [w0_v2, w1_v2]


@pytest.fixture()
def case():
    model = make_toy_model(2)
    micros = toy_batch(2, 3)
    loss, final = hand_computed(weights(model), micros)
    # The step must be visible at this tolerance: a 1/M scale moves it.
    moved = max(
        float(np.abs(a - b).max())
        for layer_a, layer_b in zip(final, weights(model))
        for a, b in zip(layer_a, layer_b)
    )
    assert moved > 1e-3
    return model, micros, loss, final


def assert_matches(model, loss, expected_loss, expected):
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    for got, want in zip(weights(model), expected):
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14)


def test_runner_matches_the_hand_computation(case):
    model, micros, expected_loss, expected = case
    runner = PipelinedRunner(
        model, PARTITION, PipeDreamSchedule(),
        optimizer_factory=lambda stage: SGD(stage.parameters(), lr=LR), grad_clip=CLIP,
    )
    loss = runner.run_batch(micros)
    assert_matches(model, loss, expected_loss, expected)


def test_oracle_matches_the_hand_computation(case):
    model, micros, expected_loss, expected = case
    groups = [list(model.layers[0].parameters()), list(model.layers[1].parameters())]
    optimizers = [SGD(params, lr=LR) for params in groups]
    loss = run_async_oracle(model, PARTITION, PipeDreamSchedule(), micros, optimizers,
                            grad_clip=CLIP)
    assert_matches(model, loss, expected_loss, expected)
