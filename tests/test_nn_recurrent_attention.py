"""LSTM, attention and transformer layer behaviour."""

import numpy as np
import pytest

from repro.nn import LSTMCell, MultiHeadAttention, PositionalEncoding, TransformerEncoderLayer
from repro.tensor import Tensor, gradcheck
from tests.tensors import tensor


def _f64(module):
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    return module


class TestLSTMCell:
    def test_state_shapes(self):
        cell = LSTMCell(3, 5)
        h, c = cell.init_state(4)
        h2, c2 = cell(Tensor(np.zeros((4, 3), np.float32)), (h, c))
        assert h2.shape == (4, 5) and c2.shape == (4, 5)

    def test_cell_state_bounded_h(self):
        cell = LSTMCell(3, 5)
        h, c = cell.init_state(2)
        for _ in range(50):
            h, c = cell(Tensor(np.random.rand(2, 3).astype(np.float32) * 10), (h, c))
        assert np.all(np.abs(h.data) <= 1.0)  # h = o * tanh(c) in (-1, 1)
        assert np.all(np.isfinite(c.data))

    def test_gradcheck_through_two_steps(self):
        cell = _f64(LSTMCell(2, 3))
        x = tensor(np.random.default_rng(0).standard_normal((2, 2)), requires_grad=True, dtype=np.float64)

        def run(t):
            h, c = cell.init_state(2)
            h, c = cell(t, (h, c))
            h, c = cell(t, (h, c))
            return h

        assert gradcheck(run, [x])

    def test_wrong_input_dim(self):
        cell = LSTMCell(3, 5)
        with pytest.raises(ValueError):
            cell(Tensor(np.zeros((1, 4), np.float32)), cell.init_state(1))


class TestMultiHeadAttention:
    def test_self_attention_shape(self):
        attn = MultiHeadAttention(16, 4)
        out = attn(Tensor(np.random.rand(2, 5, 16).astype(np.float32)))
        assert out.shape == (2, 5, 16)

    def test_indivisible_heads_raise(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_boolean_mask_blocks_positions(self):
        attn = MultiHeadAttention(8, 2)
        attn.eval()
        x = Tensor(np.random.rand(1, 4, 8).astype(np.float32))
        # Mask out key position 3 entirely.
        mask = np.ones((1, 1, 4, 4), dtype=bool)
        mask[..., 3] = False
        out_masked = attn(x, mask=mask)
        # Changing the masked key's content must not change the output.
        x2 = x.data.copy()
        x2[0, 3] += 10.0
        out_masked2 = attn(Tensor(x2), mask=mask)
        q_same = np.allclose(out_masked.data[:, :3], out_masked2.data[:, :3], atol=1e-5)
        assert q_same

    def test_full_gradcheck(self):
        attn = _f64(MultiHeadAttention(4, 2))
        attn.eval()
        x = tensor(np.random.default_rng(1).standard_normal((1, 3, 4)), requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda t: attn(t), [x], atol=5e-3)

    def test_cross_attention_uses_kv_length(self):
        attn = MultiHeadAttention(8, 2)
        q = Tensor(np.random.rand(2, 3, 8).astype(np.float32))
        kv = Tensor(np.random.rand(2, 7, 8).astype(np.float32))
        out = attn(q, kv)
        assert out.shape == (2, 3, 8)


class TestTransformerBlock:
    def test_preserves_shape(self):
        block = TransformerEncoderLayer(16, 4, 32, dropout_p=0.0)
        out = block(Tensor(np.random.rand(2, 6, 16).astype(np.float32)))
        assert out.shape == (2, 6, 16)

    def test_deep_stack_gradient_reaches_bottom(self):
        blocks = [TransformerEncoderLayer(8, 2, 16, dropout_p=0.0) for _ in range(6)]
        x = Tensor(np.random.rand(2, 4, 8).astype(np.float32), requires_grad=True)
        out = x
        for b in blocks:
            out = b(out)
        out.sum().backward()
        # Pre-norm residual stream keeps gradients healthy at depth.
        first_grads = blocks[0].ff1.weight.grad
        assert first_grads is not None
        assert np.abs(first_grads).max() > 1e-7


class TestPositionalEncoding:
    def test_adds_position_information(self):
        pe = PositionalEncoding(8, max_len=16)
        x = Tensor(np.zeros((1, 5, 8), np.float32))
        out = pe(x)
        # Two different positions must get different codes.
        assert not np.allclose(out.data[0, 0], out.data[0, 1])

    def test_sequence_too_long_raises(self):
        pe = PositionalEncoding(8, max_len=4)
        with pytest.raises(ValueError):
            pe(Tensor(np.zeros((1, 5, 8), np.float32)))

    def test_odd_d_model(self):
        pe = PositionalEncoding(7, max_len=8)
        out = pe(Tensor(np.zeros((1, 3, 7), np.float32)))
        assert out.shape == (1, 3, 7)
