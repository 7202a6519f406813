"""Layer-level behaviour: Linear, Embedding, LayerNorm, Dropout, WeightDrop."""

import numpy as np
import pytest

from repro.nn import Dropout, Embedding, LayerNorm, Linear, WeightDrop, LSTMCell
from repro.tensor import Tensor, gradcheck, lstm_sequence
from tests.tensors import tensor


class TestLinear:
    def test_shape_and_bias(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.zeros((2, 5), np.float32)))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, layer.bias.data)

    def test_batched_3d_input(self):
        layer = Linear(4, 6)
        out = layer(Tensor(np.random.rand(2, 7, 4).astype(np.float32)))
        assert out.shape == (2, 7, 6)

    def test_wrong_last_dim_raises(self):
        with pytest.raises(ValueError):
            Linear(4, 2)(Tensor(np.zeros((1, 3), np.float32)))

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_full_layer_gradcheck(self):
        layer = Linear(3, 2)
        layer.weight.data = layer.weight.data.astype(np.float64)
        layer.bias.data = layer.bias.data.astype(np.float64)
        x = tensor(np.random.default_rng(0).standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda t: layer(t), [x])
        layer.zero_grad()
        layer(x).sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 2)


class TestEmbedding:
    def test_padding_row_initialized_to_zero(self):
        emb = Embedding(10, 4, padding_idx=0)
        assert np.allclose(emb.weight.data[0], 0.0)

    def test_out_of_range_raises(self):
        emb = Embedding(5, 2)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_lookup_gradients_accumulate(self):
        emb = Embedding(5, 2)
        out = emb(np.array([3, 3, 1]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[3], 2.0)
        assert np.allclose(emb.weight.grad[1], 1.0)

    def test_accepts_tensor_indices(self):
        emb = Embedding(5, 2)
        out = emb(Tensor(np.array([0, 1])))
        assert out.shape == (2, 2)


class TestLayerNorm:
    def test_wrong_dim_raises(self):
        with pytest.raises(ValueError):
            LayerNorm(8)(Tensor(np.zeros((2, 4), np.float32)))

    def test_identity_affine_standardizes(self):
        ln = LayerNorm(16)
        x = Tensor((np.random.rand(3, 16) * 10 + 5).astype(np.float32))
        out = ln(x)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)


class TestWeightDrop:
    def _make(self, p):
        cell = LSTMCell(4, 4)
        return WeightDrop(cell, "weight_hh", p=p), cell

    def test_eval_mode_keeps_weights(self):
        wd, cell = self._make(0.5)
        wd.eval()
        original = cell.weight_hh.data.copy()
        assert wd.masked(3) is None
        assert np.array_equal(cell.weight_hh.data, original)

    def test_training_restores_weights_after_call(self):
        # The masked copies are new arrays; the parameter is never swapped.
        wd, cell = self._make(0.5)
        original = cell.weight_hh.data.copy()
        masked = wd.masked(3)
        assert masked.shape == (3, *original.shape)
        assert np.array_equal(cell.weight_hh.data, original)

    def test_unknown_weight_name_raises(self):
        with pytest.raises(KeyError):
            WeightDrop(LSTMCell(4, 4), "nope", p=0.5)

    def test_gradients_flow_to_masked_weight(self):
        wd, cell = self._make(0.4)
        x = Tensor(np.random.rand(2, 3, 4).astype(np.float32))
        out = lstm_sequence(x, cell.weight_ih, cell.weight_hh, cell.bias, 4,
                            hh_masked=wd.masked(3))
        out.sum().backward()
        assert cell.weight_hh.grad is not None


class TestDropoutLayer:
    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.5)

    def test_reproducible_after_seed(self):
        d1, d2 = Dropout(0.5), Dropout(0.5)
        d1.seed(77)
        d2.seed(77)
        x = Tensor(np.ones((8, 8), np.float32))
        assert np.array_equal(d1(x).data, d2(x).data)
