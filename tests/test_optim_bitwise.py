"""Every optimizer's update is pinned bitwise to its per-class step loop.

``Optimizer.step`` owns the one loop over parameters and each optimizer
supplies only its ``_update`` rule.  The reference classes below keep
the loop each optimizer used to carry in its own ``step`` (the update
arithmetic in the original order), and the tests step both for 20
iterations on the same random gradients, comparing parameter bytes and
``state_dict()`` after every step.
"""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import ASGD, SGD, Adagrad, Adam, AdamW

STEPS = 20
SHAPES = [(3, 4), (5,), (2, 3, 2), (4,)]
#: index of the parameter that never receives a gradient
NO_GRAD = 3
#: index of the parameter whose gradient is None on odd steps
SOMETIMES = 1


class RefSGD(SGD):
    def step(self):
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                st = self._get_state(p)
                buf = st.get("momentum")
                if buf is None:
                    buf = grad.astype(p.dtype).copy()
                else:
                    buf *= self.momentum
                    buf += grad
                st["momentum"] = buf
                grad = buf
            p.data = p.data - self.lr * grad


class RefAdam(Adam):
    def step(self):
        b1, b2 = self.betas
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad.astype(np.float32)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            st = self._get_state(p)
            if "m" not in st:
                st["m"] = np.zeros_like(p.data, dtype=np.float32)
                st["v"] = np.zeros_like(p.data, dtype=np.float32)
                st["t"] = 0
            st["t"] = int(st["t"]) + 1
            t = st["t"]
            m, v = st["m"], st["v"]
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RefAdamW(AdamW):
    def step(self):
        b1, b2 = self.betas
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad.astype(np.float32)
            st = self._get_state(p)
            if "m" not in st:
                st["m"] = np.zeros_like(p.data, dtype=np.float32)
                st["v"] = np.zeros_like(p.data, dtype=np.float32)
                st["t"] = 0
            st["t"] = int(st["t"]) + 1
            t = st["t"]
            m, v = st["m"], st["v"]
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p.data = p.data * (1.0 - self.lr * self.weight_decay)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RefAdagrad(Adagrad):
    def step(self):
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            st = self._get_state(p)
            if "sum_sq" not in st:
                st["sum_sq"] = np.zeros_like(p.data, dtype=np.float32)
            acc = st["sum_sq"]
            acc += grad * grad
            p.data = p.data - self.lr * grad / (np.sqrt(acc) + self.eps)


class RefASGD(ASGD):
    def step(self):
        self._step_count += 1
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            p.data = p.data - self.lr * grad
            st = self._get_state(p)
            if self._step_count >= self.t0:
                if "ax" not in st:
                    st["ax"] = p.data.copy()
                    st["ax_count"] = 1
                else:
                    st["ax_count"] = int(st["ax_count"]) + 1
                    ax = st["ax"]
                    ax += (p.data - ax) / st["ax_count"]


CASES = {
    "sgd": (SGD, RefSGD, dict(lr=0.1)),
    "sgd-momentum": (SGD, RefSGD, dict(lr=0.1, momentum=0.9)),
    "sgd-decay": (SGD, RefSGD, dict(lr=0.1, weight_decay=0.01)),
    "sgd-momentum-decay": (SGD, RefSGD, dict(lr=0.1, momentum=0.9, weight_decay=0.01)),
    "adam": (Adam, RefAdam, dict(lr=1e-2)),
    "adam-decay": (Adam, RefAdam, dict(lr=1e-2, weight_decay=0.01)),
    "adamw": (AdamW, RefAdamW, dict(lr=1e-2, weight_decay=0.05)),
    "asgd-t0": (ASGD, RefASGD, dict(lr=0.05, t0=5)),
    "asgd-t0-decay": (ASGD, RefASGD, dict(lr=0.05, t0=5, weight_decay=0.01)),
    "adagrad": (Adagrad, RefAdagrad, dict(lr=0.1)),
}


def make_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(shape).astype(dtype)) for shape in SHAPES]


def assert_same_state(live: dict, ref: dict) -> None:
    assert live["lr"] == ref["lr"]
    assert sorted(live["state"]) == sorted(ref["state"])
    for i, entry in ref["state"].items():
        got = live["state"][i]
        assert sorted(got) == sorted(entry), i
        for key, value in entry.items():
            if isinstance(value, np.ndarray):
                assert got[key].dtype == value.dtype, (i, key)
                assert got[key].tobytes() == value.tobytes(), (i, key)
            else:
                assert type(got[key]) is type(value) and got[key] == value, (i, key)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_update_matches_per_class_loop(case, dtype):
    live_cls, ref_cls, kwargs = CASES[case]
    live_params, ref_params = make_params(dtype), make_params(dtype)
    live, ref = live_cls(live_params, **kwargs), ref_cls(ref_params, **kwargs)
    rng = np.random.default_rng(1)
    for step in range(STEPS):
        for i, (a, b) in enumerate(zip(live_params, ref_params)):
            if i == NO_GRAD or (i == SOMETIMES and step % 2):
                a.grad = b.grad = None
            else:
                grad = rng.standard_normal(a.shape).astype(dtype)
                a.grad, b.grad = grad, grad.copy()
        live.step()
        ref.step()
        for a, b in zip(live_params, ref_params):
            assert a.data.dtype == b.data.dtype
            assert a.data.tobytes() == b.data.tobytes(), (case, step)
        assert_same_state(live.state_dict(), ref.state_dict())
    assert live_params[NO_GRAD].data.tobytes() == make_params(dtype)[NO_GRAD].data.tobytes()
