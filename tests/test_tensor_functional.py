"""Gradcheck + semantics for every functional primitive."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    cat,
    cross_entropy,
    dropout,
    embedding_lookup,
    gelu,
    gradcheck,
    layer_norm,
    log_softmax,
    nll_loss,
    relu,
    sigmoid,
    softmax,
    stack,
    tanh,
    where,
)
from tests.tensors import tensor


def _rand(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestActivationGradients:
    def test_relu(self):
        assert gradcheck(relu, [_rand(4, 5, seed=1)])

    def test_gelu(self):
        assert gradcheck(gelu, [_rand(4, 5, seed=2)])

    def test_tanh(self):
        assert gradcheck(tanh, [_rand(4, 5, seed=3)])

    def test_sigmoid(self):
        assert gradcheck(sigmoid, [_rand(4, 5, seed=4)])

    def test_sigmoid_extreme_values_stable(self):
        x = tensor([-100.0, 0.0, 100.0])
        out = sigmoid(x)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-6)
        assert out.data[2] == pytest.approx(1.0, abs=1e-6)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        out = softmax(_rand(6, 7, seed=5))
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_gradcheck(self):
        assert gradcheck(lambda x: softmax(x, axis=-1), [_rand(3, 4, seed=6)])

    def test_softmax_other_axis(self):
        assert gradcheck(lambda x: softmax(x, axis=0), [_rand(3, 4, seed=7)])

    def test_log_softmax_matches_log_of_softmax(self):
        x = _rand(5, 8, seed=8)
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-6)

    def test_log_softmax_gradcheck(self):
        assert gradcheck(lambda x: log_softmax(x), [_rand(3, 4, seed=9)])

    def test_softmax_shift_invariance(self):
        x = _rand(2, 5, seed=10)
        shifted = Tensor(x.data + 1000.0)
        assert np.allclose(softmax(x).data, softmax(shifted).data, atol=1e-6)
        assert np.all(np.isfinite(softmax(shifted).data))


class TestLayerNorm:
    def test_output_standardized(self):
        x = _rand(4, 16, seed=11)
        w = tensor(np.ones(16), dtype=np.float64, requires_grad=True)
        b = tensor(np.zeros(16), dtype=np.float64, requires_grad=True)
        out = layer_norm(x, w, b)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck_all_inputs(self):
        x = _rand(3, 8, seed=12)
        w = tensor(np.random.default_rng(1).standard_normal(8), dtype=np.float64, requires_grad=True)
        b = tensor(np.random.default_rng(2).standard_normal(8), dtype=np.float64, requires_grad=True)
        assert gradcheck(lambda a, ww, bb: layer_norm(a, ww, bb), [x, w, b])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = _rand(10, 10, seed=13)
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_zero_p_is_identity(self):
        x = _rand(4, seed=14)
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_inverted_scaling_preserves_mean(self):
        x = tensor(np.ones((200, 200)), requires_grad=False)
        out = dropout(x, 0.3, np.random.default_rng(7))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_gradient_matches_mask(self):
        x = _rand(50, seed=15)
        out = dropout(x, 0.5, np.random.default_rng(3))
        out.sum().backward()
        # grad is 2.0 where kept, 0 where dropped
        kept = out.data != 0
        assert np.allclose(x.grad[kept], 2.0)
        assert np.allclose(x.grad[~kept], 0.0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            dropout(_rand(2), 1.0, np.random.default_rng(0))


class TestEmbedding:
    def test_lookup_values(self):
        w = tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True)
        out = embedding_lookup(w, np.array([[0, 2], [3, 3]]))
        assert out.shape == (2, 2, 3)
        assert np.allclose(out.data[0, 1], [6, 7, 8])

    def test_scatter_add_backward(self):
        w = tensor(np.zeros((4, 2)), dtype=np.float64, requires_grad=True)
        embedding_lookup(w, np.array([1, 1, 2])).sum().backward()
        assert np.allclose(w.grad[:, 0], [0, 2, 1, 0])

    def test_float_indices_rejected(self):
        w = tensor(np.zeros((4, 2)), requires_grad=True)
        with pytest.raises(TypeError):
            embedding_lookup(w, np.array([0.5]))


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = tensor(np.zeros((3, 5)), dtype=np.float64, requires_grad=True)
        loss = cross_entropy(logits, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(np.log(5), abs=1e-6)

    def test_cross_entropy_gradcheck(self):
        x = _rand(6, 4, seed=16)
        targets = np.array([0, 1, 2, 3, 0, 1])
        assert gradcheck(lambda a: cross_entropy(a, targets), [x])

    def test_ignore_index_masks_loss_and_grad(self):
        x = _rand(4, 3, seed=17)
        targets = np.array([0, 1, 0, 0])
        # Mark rows 2,3 as padding.
        masked = np.array([0, 1, 9, 9])
        loss_masked = cross_entropy(x, masked, ignore_index=9)
        x2 = tensor(x.data[:2].copy(), requires_grad=True, dtype=np.float64)
        loss_sub = cross_entropy(x2, targets[:2])
        assert loss_masked.item() == pytest.approx(loss_sub.item(), abs=1e-6)
        loss_masked.backward()
        assert np.allclose(x.grad[2:], 0.0)

    def test_all_ignored_gives_zero_not_nan(self):
        x = _rand(2, 3, seed=18)
        loss = cross_entropy(x, np.array([7, 7]), ignore_index=7)
        assert loss.item() == pytest.approx(0.0)

    def test_nll_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            nll_loss(_rand(2, 3, 4, seed=19), np.array([0, 1]))
        with pytest.raises(ValueError):
            nll_loss(_rand(2, 3, seed=20), np.array([0, 1, 2]))


class TestShapeCombinators:
    def test_cat_backward_splits(self):
        a = _rand(2, 3, seed=21)
        b = _rand(4, 3, seed=22)
        cat([a, b], axis=0).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (4, 3)

    def test_cat_gradcheck(self):
        a, b = _rand(2, 3, seed=23), _rand(2, 2, seed=24)
        assert gradcheck(lambda x, y: cat([x, y], axis=1), [a, b])

    def test_stack_gradcheck(self):
        a, b = _rand(3, seed=25), _rand(3, seed=26)
        assert gradcheck(lambda x, y: stack([x, y], axis=0), [a, b])

    def test_empty_cat_raises(self):
        with pytest.raises(ValueError):
            cat([])

    def test_where_routes_gradients(self):
        cond = np.array([True, False, True])
        a = _rand(3, seed=27)
        b = _rand(3, seed=28)
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0, 1])
        assert np.allclose(b.grad, [0, 1, 0])
