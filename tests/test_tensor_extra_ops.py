"""Coverage for the less-travelled tensor ops and autograd corners."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, no_grad
from tests.tensors import tensor


def _rand(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestElementwiseExtras:
    def test_exp_log_roundtrip_gradient(self):
        x = tensor(np.abs(np.random.default_rng(0).standard_normal(5)) + 0.5,
                   requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda t: t.exp().log(), [x])

    def test_abs_gradient_sign(self):
        x = tensor([-2.0, 3.0], requires_grad=True)
        x.abs().sum().backward()
        assert np.allclose(x.grad, [-1.0, 1.0])

    def test_pow_rejects_tensor_exponent(self):
        x = tensor([2.0], requires_grad=True)
        with pytest.raises(TypeError):
            x ** tensor([2.0])


class TestReductionsExtras:
    def test_var_matches_numpy(self):
        x = _rand(4, 6, seed=2)
        assert np.allclose(x.var(axis=1).data, x.data.var(axis=1), atol=1e-6)

    def test_var_gradcheck(self):
        assert gradcheck(lambda t: t.var(axis=-1), [_rand(3, 5, seed=3)])

    def test_max_axis_keepdims(self):
        x = _rand(3, 4, seed=4)
        out = x.max(axis=1, keepdims=True)
        assert out.shape == (3, 1)

    def test_max_ties_split_gradient(self):
        x = tensor([2.0, 2.0, 1.0], requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad, [0.5, 0.5, 0.0])

    def test_mean_axis_tuple(self):
        x = _rand(2, 3, 4, seed=5)
        out = x.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0 / 8)


class TestShapeExtras:
    def test_transpose_explicit_axes(self):
        x = _rand(2, 3, 4, seed=7)
        assert x.transpose(2, 0, 1).shape == (4, 2, 3)
        assert gradcheck(lambda t: t.transpose(2, 0, 1), [x])

    def test_reshape_accepts_tuple(self):
        x = _rand(6, seed=8)
        assert x.reshape((2, 3)).shape == (2, 3)


class TestAutogradCorners:
    def test_no_grad_nesting_restores_state(self):
        a = tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            out = a * 2
        assert not out.requires_grad
        out2 = a * 2
        assert out2.requires_grad

    def test_mixed_grad_and_nograd_parents(self):
        a = tensor([1.0], requires_grad=True)
        b = tensor([2.0])  # no grad
        out = a * b
        out.sum().backward()
        assert np.allclose(a.grad, [2.0])
        assert b.grad is None

    def test_copy_preserves_flag(self):
        a = tensor([1.0], requires_grad=True)
        assert a.copy().requires_grad

    def test_getitem_with_tensor_index(self):
        a = tensor([1.0, 2.0, 3.0], requires_grad=True)
        idx = Tensor(np.array([0, 2]))
        out = a[idx]
        assert np.allclose(out.data, [1.0, 3.0])

    def test_repr_does_not_crash_on_large_tensor(self):
        assert "Tensor" in repr(tensor(np.zeros((100, 100))))

    def test_diamond_graph_gradients(self):
        """x feeds two branches that recombine: gradients must sum."""
        x = _rand(3, seed=9)
        assert gradcheck(lambda t: (t * 2.0) + (t.exp() * t), [x], atol=5e-3)
