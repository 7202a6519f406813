"""Gradcheck property tests for the layers that previously lacked them:
attention, full-sequence recurrence, normalization, and dropout in eval
mode.  All inputs are float64 and seeded (central differences need the
same example on every run)."""

import numpy as np
import pytest

from repro.nn import Dropout, LSTMCell, LayerNorm, MultiHeadAttention
from repro.tensor import gradcheck, lstm_sequence, stack
from repro.utils.seeding import derive_rng
from tests.tensors import tensor


def _f64(module):
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    return module


def _input(shape, tag, seed=0):
    rng = derive_rng("gradcheck", tag, seed=seed)
    return tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestAttentionGradients:
    def test_self_attention_input_gradient(self):
        attn = _f64(MultiHeadAttention(d_model=8, num_heads=2))
        x = _input((2, 3, 8), "attn-self")
        assert gradcheck(lambda t: attn(t), [x])

    def test_cross_attention_query_and_memory_gradients(self):
        attn = _f64(MultiHeadAttention(d_model=8, num_heads=2))
        q = _input((1, 2, 8), "attn-q")
        kv = _input((1, 4, 8), "attn-kv")
        assert gradcheck(lambda a, b: attn(a, b, b), [q, kv])

    def test_masked_attention_gradient(self):
        attn = _f64(MultiHeadAttention(d_model=4, num_heads=1))
        x = _input((1, 3, 4), "attn-mask")
        mask = np.tril(np.ones((3, 3), dtype=bool))  # causal
        assert gradcheck(lambda t: attn(t, mask=mask), [x])

    def test_projection_weight_gradients(self):
        attn = _f64(MultiHeadAttention(d_model=4, num_heads=2))
        x = _input((1, 2, 4), "attn-w")

        def run(t, _w):
            return attn(t)

        for proj in (attn.q_proj, attn.k_proj, attn.v_proj, attn.out_proj):
            assert gradcheck(run, [x, proj.weight])


class TestRecurrentGradients:
    def test_lstm_full_sequence_input_gradient(self):
        """A cell stepped over time, then the hidden states stacked (the
        GNMT decoder's form)."""
        cell = _f64(LSTMCell(3, 4))
        x = _input((2, 3, 3), "lstm-seq")  # (B, T, D)

        def run(t):
            h, c = cell.init_state(t.shape[0])
            outs = []
            for step in range(t.shape[1]):
                h, c = cell(t[:, step, :], (h, c))
                outs.append(h)
            return stack(outs, axis=1)

        assert gradcheck(run, [x])

    def test_lstm_sequence_gradients(self):
        """The whole-sequence kernel the AWD layers and the GNMT encoder
        run: input and every weight."""
        cell = _f64(LSTMCell(3, 4))
        x = _input((2, 4, 3), "lstm-sequence")  # (B, T, D)

        def run(t, _w):
            return lstm_sequence(t, cell.weight_ih, cell.weight_hh, cell.bias, 4)

        for weight in (cell.weight_ih, cell.weight_hh, cell.bias):
            assert gradcheck(run, [x, weight])

    def test_lstm_cell_hidden_state_gradient(self):
        cell = _f64(LSTMCell(3, 4))
        x = _input((2, 3), "lstm-x")
        h0 = _input((2, 4), "lstm-h0")
        c0 = _input((2, 4), "lstm-c0")

        def run(xt, h, c):
            h1, c1 = cell(xt, (h, c))
            return h1 + c1

        assert gradcheck(run, [x, h0, c0])

    def test_lstm_cell_weight_gradients(self):
        cell = _f64(LSTMCell(2, 3))
        x = _input((2, 2), "lstm-w")

        def run(t, _w):
            h, c = cell.init_state(2)
            h, _ = cell(t, (h, c))
            return h

        assert gradcheck(run, [x, cell.weight_ih])
        assert gradcheck(run, [x, cell.weight_hh])
        assert gradcheck(run, [x, cell.bias])


class TestNormalizationGradients:
    def test_layer_norm_input_gradient(self):
        ln = _f64(LayerNorm(6))
        x = _input((4, 6), "ln-x")
        assert gradcheck(lambda t: ln(t), [x])

    def test_layer_norm_affine_gradients(self):
        ln = _f64(LayerNorm(5))
        x = _input((3, 5), "ln-affine")

        def run(t, _p):
            return ln(t)

        assert gradcheck(run, [x, ln.weight])
        assert gradcheck(run, [x, ln.bias])

    def test_layer_norm_3d_gradient(self):
        ln = _f64(LayerNorm(4))
        x = _input((2, 3, 4), "ln-3d")
        assert gradcheck(lambda t: ln(t), [x])


class TestDropoutEvalGradients:
    def test_eval_mode_is_identity_with_exact_gradient(self):
        drop = Dropout(0.5).eval()
        x = _input((3, 5), "drop-eval")
        out = drop(x)
        np.testing.assert_array_equal(out.data, x.data)
        assert gradcheck(lambda t: drop(t), [x])
        x.zero_grad()
        out2 = drop(x)
        out2.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_train_mode_gradient_masks_match_forward(self):
        # In train mode the gradient must be the same scaled mask the
        # forward applied — checked directly (finite differences would
        # resample the mask).
        drop = Dropout(0.4)
        drop.seed(123)
        x = _input((64, 8), "drop-train")
        out = drop(x)
        mask = np.zeros_like(out.data)
        nz = out.data != 0
        mask[nz] = out.data[nz] / x.data[nz]
        out.sum().backward()
        np.testing.assert_allclose(x.grad, mask, rtol=1e-12)
