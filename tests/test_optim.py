"""Optimizer semantics: update rules, state handling, clipping, schedulers,
and the EASGD baseline's coupling invariants."""

import numpy as np
import pytest

from repro.nn import Linear
from repro.nn.module import Parameter
from repro.optim import ASGD, SGD, Adagrad, Adam, AdamW, EASGD
from repro.tensor import Tensor


def make_param(values):
    p = Parameter(np.array(values, dtype=np.float32))
    return p


class TestSGD:
    def test_plain_update(self):
        p = make_param([1.0])
        p.grad = np.array([0.5], dtype=np.float32)
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.95])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        for _ in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
        # v1 = 1, x1 = -1; v2 = 1.9, x2 = -2.9
        assert np.allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = make_param([10.0])
        p.grad = np.zeros(1, dtype=np.float32)
        SGD([p], lr=0.1, weight_decay=0.1).step()
        assert np.allclose(p.data, [10.0 - 0.1 * 1.0])

    def test_none_grad_skipped(self):
        p = make_param([1.0])
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_invalid_hyperparams(self):
        p = make_param([1.0])
        with pytest.raises(ValueError):
            SGD([p], lr=-1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_equals_lr_signed(self):
        """With bias correction, step 1 moves by ~lr * sign(grad)."""
        p = make_param([0.0])
        p.grad = np.array([3.0], dtype=np.float32)
        Adam([p], lr=0.01).step()
        assert np.allclose(p.data, [-0.01], atol=1e-5)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        p = make_param(rng.standard_normal(5))
        ref = p.data.astype(np.float64).copy()
        opt = Adam([p], lr=0.05, betas=(0.9, 0.999), eps=1e-8)
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 6):
            g = rng.standard_normal(5)
            p.grad = g.astype(np.float32)
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.allclose(p.data, ref, atol=1e-4)

    def test_state_dict_roundtrip_continues_identically(self):
        rng = np.random.default_rng(1)
        p1 = make_param(rng.standard_normal(3))
        p2 = make_param(p1.data.copy())
        o1, o2 = Adam([p1], lr=0.1), Adam([p2], lr=0.1)
        g = rng.standard_normal(3).astype(np.float32)
        p1.grad = g.copy()
        o1.step()
        o2.load_state_dict(o1.state_dict())
        p2.data = p1.data.copy()
        g2 = rng.standard_normal(3).astype(np.float32)
        p1.grad, p2.grad = g2.copy(), g2.copy()
        o1.step()
        o2.step()
        assert np.allclose(p1.data, p2.data)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([make_param([1.0])], betas=(1.0, 0.9))


class TestAdamW:
    def test_decay_is_decoupled_from_gradient_statistics(self):
        """With zero gradient AdamW still shrinks the weights; Adam with
        coupled weight_decay would route the decay through the moments."""
        p = make_param([10.0])
        p.grad = np.zeros(1, dtype=np.float32)
        opt = AdamW([p], lr=0.1, weight_decay=0.1)
        opt.step()
        assert np.allclose(p.data, [10.0 * (1 - 0.01)], atol=1e-5)

    def test_zero_decay_matches_adam(self):
        rng = np.random.default_rng(3)
        p1 = make_param(rng.standard_normal(4))
        p2 = make_param(p1.data.copy())
        o1 = Adam([p1], lr=0.05)
        o2 = AdamW([p2], lr=0.05, weight_decay=0.0)
        for _ in range(3):
            g = rng.standard_normal(4).astype(np.float32)
            p1.grad, p2.grad = g.copy(), g.copy()
            o1.step()
            o2.step()
        assert np.allclose(p1.data, p2.data, atol=1e-6)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            AdamW([make_param([1.0])], weight_decay=-0.1)


class TestAdagrad:
    def test_learning_rate_decays_with_accumulation(self):
        p = make_param([0.0])
        opt = Adagrad([p], lr=1.0)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        first_move = -float(p.data[0])
        before = float(p.data[0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        second_move = before - float(p.data[0])
        assert second_move < first_move


class TestASGD:
    def test_tail_average_tracked(self):
        p = make_param([0.0])
        opt = ASGD([p], lr=0.5, t0=0)
        trajectory = []
        for g in [1.0, -1.0, 1.0]:
            p.grad = np.array([g], dtype=np.float32)
            opt.step()
            trajectory.append(float(p.data[0]))
        assert np.allclose(opt.state[id(p)]["ax"], [np.mean(trajectory)], atol=1e-6)
        assert np.allclose(p.data, [trajectory[-1]])


class TestClipGradNorm:
    def test_norm_reported_and_applied(self):
        p = make_param([3.0, 4.0])
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        opt = SGD([p], lr=1.0)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-5)

    def test_below_threshold_untouched(self):
        p = make_param([1.0])
        p.grad = np.array([0.5], dtype=np.float32)
        SGD([p], lr=1.0).clip_grad_norm(10.0)
        assert np.allclose(p.grad, [0.5])


class TestEASGD:
    def _models(self, n=3):
        models = [Linear(4, 4, bias=False) for _ in range(n)]
        center = Linear(4, 4, bias=False)
        base = center.state_dict()
        for m in models:
            m.load_state_dict(base)
        return models, center

    def test_center_conservation(self):
        """The elastic exchange conserves sum(x_i) + n * discrepancy:
        specifically center moves by alpha * sum(diffs) while each worker
        moves by -alpha * diff — total momentum is conserved."""
        models, center = self._models()
        rng = np.random.default_rng(0)
        for m in models:
            for p in m.parameters():
                p.data = rng.standard_normal(p.shape).astype(np.float32)
        easgd = EASGD(models, center, lr=0.5, rho=0.1)
        worker_before = sum(p.data.sum() for m in models for p in m.parameters())
        center_before = sum(p.data.sum() for p in center.parameters())
        easgd.sync()
        worker_after = sum(p.data.sum() for m in models for p in m.parameters())
        center_after = sum(p.data.sum() for p in center.parameters())
        assert worker_after + center_after == pytest.approx(worker_before + center_before, abs=1e-3)

    def test_sync_pulls_workers_toward_center(self):
        models, center = self._models(n=2)
        for p in models[0].parameters():
            p.data = p.data + 1.0
        easgd = EASGD(models, center, lr=0.5, rho=0.2)
        div_before = easgd_divergence(models, center)
        easgd.sync()
        assert easgd_divergence(models, center) < div_before

    def test_unstable_coefficient_rejected(self):
        models, center = self._models(n=4)
        with pytest.raises(ValueError):
            EASGD(models, center, lr=1.0, rho=0.3)  # 4 * 0.3 >= 1

    def test_local_step_applies_gradient(self):
        models, center = self._models(n=1)
        p = next(iter(models[0].parameters()))
        p.grad = np.ones_like(p.data)
        before = p.data.copy()
        EASGD(models, center, lr=0.5, rho=0.1).local_step(0)
        assert np.allclose(p.data, before - 0.5)


def easgd_divergence(models, center):
    total = 0.0
    cparams = dict(center.named_parameters())
    for m in models:
        for name, p in m.named_parameters():
            total += float(((p.data - cparams[name].data) ** 2).sum())
    return total
