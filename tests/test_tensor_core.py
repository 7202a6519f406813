"""Core Tensor semantics: construction, arithmetic, broadcasting, backward."""

import numpy as np
import pytest

from repro.tensor import Tensor, full, no_grad, zeros
from tests.tensors import tensor


class TestConstruction:
    def test_float_data_defaults_to_float32(self):
        t = tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_explicit_dtype_respected(self):
        t = tensor([1.0], dtype=np.float64)
        assert t.dtype == np.float64

    def test_int_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_factories(self):
        assert zeros(2, 3).shape == (2, 3)
        assert full((2, 2), 7.0).data[0, 0] == 7.0

    def test_item_on_scalar(self):
        assert tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_vector_raises(self):
        with pytest.raises(ValueError):
            tensor([1.0, 2.0]).item()


class TestArithmetic:
    def test_add_backward_accumulates_to_both(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_mul_backward(self):
        a = tensor([2.0, 3.0], requires_grad=True)
        b = tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5, 7])
        assert np.allclose(b.grad, [2, 3])

    def test_scalar_mixing(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        out = 3.0 * a + 1.0 - a / 2.0
        out.sum().backward()
        assert np.allclose(a.grad, [2.5, 2.5])

    def test_div_backward(self):
        a = tensor([6.0], requires_grad=True)
        b = tensor([3.0], requires_grad=True)
        (a / b).backward(np.array([1.0], dtype=np.float32))
        assert np.allclose(a.grad, [1 / 3])
        assert np.allclose(b.grad, [-6 / 9])

    def test_pow_backward(self):
        a = tensor([2.0], requires_grad=True)
        (a**3).sum().backward()
        assert np.allclose(a.grad, [12.0])

    def test_reuse_of_node_accumulates_gradient(self):
        a = tensor([1.0], requires_grad=True)
        out = a * a + a  # dout/da = 2a + 1 = 3
        out.sum().backward()
        assert np.allclose(a.grad, [3.0])

    def test_broadcast_add_reduces_gradient(self):
        a = tensor(np.ones((3, 4)), requires_grad=True)
        b = tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_broadcast_keepdim_axis(self):
        a = tensor(np.ones((3, 1)), requires_grad=True)
        b = tensor(np.ones((3, 5)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (3, 1)
        assert np.allclose(a.grad, 5.0)


class TestMatmul:
    def test_2d(self):
        a = tensor(np.random.rand(3, 4).astype(np.float32), requires_grad=True)
        b = tensor(np.random.rand(4, 5).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4, 5)

    def test_batched(self):
        a = tensor(np.random.rand(2, 3, 4).astype(np.float32), requires_grad=True)
        b = tensor(np.random.rand(2, 4, 5).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_batched_broadcast_rhs(self):
        a = tensor(np.random.rand(2, 3, 4).astype(np.float32), requires_grad=True)
        b = tensor(np.random.rand(4, 5).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        assert b.grad.shape == (4, 5)

    def test_vector_inner(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = tensor([3.0, 4.0], requires_grad=True)
        (a @ b).backward(np.float32(1.0))
        assert np.allclose(a.grad, [3, 4])
        assert np.allclose(b.grad, [1, 2])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_mean_gradient_scaling(self):
        a = tensor(np.ones((4,), np.float32), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 0.25)

    def test_max_gradient_flows_to_argmax(self):
        a = tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0, 1, 0])

    def test_reshape_roundtrip(self):
        a = tensor(np.random.rand(2, 6).astype(np.float32), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)

    def test_transpose_backward(self):
        a = tensor(np.random.rand(2, 3).astype(np.float32), requires_grad=True)
        (a.T * tensor(np.arange(6, dtype=np.float32).reshape(3, 2))).sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_scatter_backward(self):
        a = tensor(np.zeros(5, np.float32), requires_grad=True)
        a[np.array([1, 1, 3])].sum().backward()
        assert np.allclose(a.grad, [0, 2, 0, 1, 0])  # repeated index accumulates

    def test_squeeze_unsqueeze(self):
        a = tensor(np.random.rand(2, 1, 3).astype(np.float32), requires_grad=True)
        a.squeeze(1).unsqueeze(0).sum().backward()
        assert a.grad.shape == (2, 1, 3)


class TestAutogradMachinery:
    def test_no_grad_suppresses_graph(self):
        a = tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._backward_fn is None  # a leaf: no graph recorded

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_grad_shape_checked(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward(np.zeros(3, np.float32))

    def test_deep_chain_no_recursion_error(self):
        a = tensor([1.0], requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert np.allclose(a.grad, [1.0])

    def test_second_backward_accumulates_into_grad(self):
        a = tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 3).sum().backward()
        assert np.allclose(a.grad, [5.0])

    def test_backward_never_writes_into_a_closure_result(self):
        # One ndarray handed to two parents, each of which receives a
        # second contribution: accumulation must not add into it.
        shared = np.array([1.0, 2.0], dtype=np.float32)
        snapshot = shared.copy()
        a = tensor([0.5, 0.5], requires_grad=True)
        b = tensor([0.25, 0.25], requires_grad=True)
        x, y = a * 1.0, b * 1.0
        pair = Tensor._make(x.data + y.data, (x, y), lambda g: (shared, shared), "pair")
        (pair.sum() + (x * 2.0).sum() + (y * 3.0).sum()).backward()
        np.testing.assert_array_equal(shared, snapshot)
        np.testing.assert_array_equal(a.grad, [3.0, 4.0])
        np.testing.assert_array_equal(b.grad, [4.0, 5.0])

    def test_second_backward_leaves_held_grad_unchanged(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        (a * 2.0).sum().backward()
        held = a.grad
        snapshot = held.copy()
        (a * 3.0).sum().backward()
        np.testing.assert_array_equal(held, snapshot)
        np.testing.assert_array_equal(a.grad, [5.0, 5.0])

    def test_zero_grad(self):
        a = tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None
