"""The autograd contract that PipeDream's weight stashing rests on.

A backward closure reads only arrays it bound at forward time, and the
parameter writers (the optimizer step, the state-dict load, the elastic
commit) rebind ``p.data`` instead of writing into it.  Together they
make every autograd graph a weight stash: a backward that runs after
the weights moved still computes the gradient of the forward-time
weights, with no copy of them kept anywhere else.

The gates rebind every parameter (or op input) to a NaN array between
forward and backward; any closure that re-reads ``.data`` then leaks
NaN into some gradient.
"""

import numpy as np
import pytest

from repro.data.dataset import split_microbatches
from repro.models.registry import build_workload
from repro.tensor import Tensor, micro_stack
from repro.tensor import functional as F


def parameter_grads(model_name: str, stacked: bool, rebind: bool) -> list:
    spec = build_workload(model_name)
    model = spec.build_model().seed(0)
    micros = split_microbatches(next(iter(spec.make_train_loader(4, 0))), 2)
    if stacked:
        batch = {key: np.stack([mb[key] for mb in micros]) for key in micros[0]}
        with micro_stack(len(micros)):
            loss = model.loss(batch)
    else:
        loss = model.loss(micros[0])
    if rebind:
        for p in model.parameters():
            p.data = np.full_like(p.data, np.nan)
    loss.backward(np.ones_like(loss.data))
    return [p.grad for p in model.parameters()]


@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
@pytest.mark.parametrize("model_name", ["awd", "bert", "gnmt"])
def test_backward_uses_forward_time_weights(model_name, stacked):
    reference = parameter_grads(model_name, stacked, rebind=False)
    rebound = parameter_grads(model_name, stacked, rebind=True)
    assert all(g is not None for g in reference)
    differ = sum(not np.array_equal(a, b) for a, b in zip(reference, rebound))
    assert differ == 0, f"{differ} of {len(reference)} parameter gradients read rebound weights"


#: op -> (input shapes, op); every op whose backward needs an input's values
OPS = {
    "mul": ([(3, 4), (3, 4)], lambda a, b: a * b),
    "div": ([(3, 4), (3, 4)], lambda a, b: a / b),
    "pow": ([(3, 4)], lambda a: a**3),
    "matmul": ([(3, 4), (4, 2)], lambda a, b: a @ b),
    "log": ([(3, 4)], lambda a: a.log()),
    "abs": ([(3, 4)], lambda a: a.abs()),
    "max": ([(3, 4)], lambda a: a.max(axis=0)),
    "relu": ([(3, 4)], F.relu),
    "linear": ([(3, 4), (2, 4), (2,)], F.linear),
    "layer_norm": ([(3, 4), (4,), (4,)], F.layer_norm),
    "attention": ([(2, 3, 4)] * 3, lambda q, k, v: F.scaled_dot_attention(q, k, v, 0.5)),
    "lstm_cell": (
        [(3, 2), (3, 2), (3, 2), (8, 2), (8, 2), (8,)],
        lambda *args: sum(F.lstm_cell(*args, hidden_size=2)),
    ),
    "lstm_sequence": (
        [(2, 3, 4), (8, 4), (8, 2), (8,)],
        lambda *args: F.lstm_sequence(*args, hidden_size=2),
    ),
}


def op_grads(op: str, rebind: bool) -> list:
    shapes, fn = OPS[op]
    rng = np.random.default_rng(0)
    inputs = [Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=True) for shape in shapes]
    out = fn(*inputs)
    if rebind:
        for t in inputs:
            t.data = np.full_like(t.data, np.nan)
    out.backward(np.ones_like(out.data))
    return [t.grad for t in inputs]


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_backward_uses_forward_time_inputs(op):
    for a, b in zip(op_grads(op, rebind=False), op_grads(op, rebind=True)):
        assert a is not None and np.array_equal(a, b)
