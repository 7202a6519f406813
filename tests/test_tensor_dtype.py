"""Float64-promotion regression gate.

``DEFAULT_DTYPE`` is float32; under NumPy's NEP-50 rules a stray
``np.float64`` scalar (or an unannotated ``np.sqrt(...)`` constant) is
"strong" and silently promotes every downstream array to float64 —
doubling memory traffic without tripping any tolerance-based test.  Each
op in ``repro.tensor.functional`` (and the Tensor operator surface) gets
one regression test here: float32 in, float32 out, float32 gradients.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, assert_preserves_dtype
from repro.tensor import functional as F
from repro.tensor.tensor import DEFAULT_DTYPE
from tests.tensors import tensor


def _t(*shape, seed=0, grad=True):
    rng = np.random.default_rng(seed)
    return tensor(rng.standard_normal(shape), requires_grad=grad)


def _assert_float32_through_backward(out: Tensor, *inputs: Tensor) -> None:
    """Forward output AND every input gradient stay DEFAULT_DTYPE."""
    assert_preserves_dtype(out, *inputs)
    scalar = out.sum() if out.size > 1 else out
    scalar.backward()
    for idx, inp in enumerate(inputs):
        assert inp.grad is not None, f"input {idx} got no gradient"
        assert inp.grad.dtype == DEFAULT_DTYPE, (
            f"input {idx} gradient promoted to {inp.grad.dtype}"
        )


# --------------------------------------------------------------------- #
# functional ops, one test per op


@pytest.mark.parametrize("op", [F.relu, F.gelu, F.tanh, F.sigmoid])
def test_elementwise_ops_preserve_dtype(op):
    x = _t(4, 5)
    _assert_float32_through_backward(op(x), x)


@pytest.mark.parametrize("op", [F.softmax, F.log_softmax])
def test_softmax_family_preserves_dtype(op):
    x = _t(3, 7)
    _assert_float32_through_backward(op(x, axis=-1), x)


def test_layer_norm_preserves_dtype():
    x, w, b = _t(4, 8), _t(8, seed=1), _t(8, seed=2)
    _assert_float32_through_backward(F.layer_norm(x, w, b), x, w, b)


def test_dropout_preserves_dtype():
    x = _t(6, 6)
    out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
    _assert_float32_through_backward(out, x)


def test_embedding_lookup_preserves_dtype():
    w = _t(10, 4)
    idx = np.array([[1, 3], [7, 2]])
    _assert_float32_through_backward(F.embedding_lookup(w, idx), w)


def test_nll_loss_preserves_dtype():
    logp = F.log_softmax(_t(5, 9), axis=-1)
    targets = np.array([0, 3, 8, 1, 2])
    loss = F.nll_loss(logp, targets)
    assert loss.dtype == DEFAULT_DTYPE
    loss.backward()


def test_cross_entropy_preserves_dtype():
    x = _t(5, 9)
    loss = F.cross_entropy(x, np.array([0, 3, 8, 1, 2]), ignore_index=1)
    assert loss.dtype == DEFAULT_DTYPE
    loss.backward()
    assert x.grad.dtype == DEFAULT_DTYPE


def test_cat_preserves_dtype():
    a, b = _t(2, 3), _t(4, 3, seed=1)
    _assert_float32_through_backward(F.cat([a, b], axis=0), a, b)


def test_stack_preserves_dtype():
    a, b = _t(2, 3), _t(2, 3, seed=1)
    _assert_float32_through_backward(F.stack([a, b], axis=0), a, b)


def test_where_preserves_dtype():
    a, b = _t(4, 4), _t(4, 4, seed=1)
    cond = a.data > 0
    _assert_float32_through_backward(F.where(cond, a, b), a, b)


def test_linear_preserves_dtype():
    x, w, b = _t(3, 5), _t(4, 5, seed=1), _t(4, seed=2)
    _assert_float32_through_backward(F.linear(x, w, b), x, w, b)


def test_lstm_cell_preserves_dtype():
    B, I, H = 2, 3, 4
    x, h, c = _t(B, I), _t(B, H, seed=1), _t(B, H, seed=2)
    w_ih, w_hh = _t(4 * H, I, seed=3), _t(4 * H, H, seed=4)
    bias = _t(4 * H, seed=5)
    h2, c2 = F.lstm_cell(x, h, c, w_ih, w_hh, bias, H)
    assert_preserves_dtype((h2, c2), x, h, c, w_ih, w_hh, bias)
    (h2.sum() + c2.sum()).backward()
    for inp in (x, h, c, w_ih, w_hh, bias):
        assert inp.grad.dtype == DEFAULT_DTYPE


def test_scaled_dot_attention_preserves_dtype():
    B, Hd, T, D = 2, 2, 4, 3
    q, k, v = _t(B, Hd, T, D), _t(B, Hd, T, D, seed=1), _t(B, Hd, T, D, seed=2)
    out = F.scaled_dot_attention(q, k, v, scale=1.0 / np.sqrt(D).item())
    _assert_float32_through_backward(out, q, k, v)


# --------------------------------------------------------------------- #
# Tensor operator surface: Python-scalar arithmetic is the classic leak


@pytest.mark.parametrize(
    "expr",
    [
        lambda x: x + 1.5,
        lambda x: 1.5 + x,
        lambda x: x - 0.5,
        lambda x: 0.5 - x,
        lambda x: x * 2.0,
        lambda x: x / 3.0,
        lambda x: 2.0 / (x + 10.0),
        lambda x: x**2,
        lambda x: -x,
        lambda x: x.sum(),
        lambda x: x.mean(axis=0),
        lambda x: x.reshape(-1),
        lambda x: x.transpose(1, 0),
        lambda x: x[1:, :2],
    ],
    ids=[
        "add-scalar", "radd-scalar", "sub-scalar", "rsub-scalar",
        "mul-scalar", "div-scalar", "rdiv-scalar", "pow", "neg",
        "sum", "mean", "reshape", "transpose", "getitem",
    ],
)
def test_tensor_scalar_arithmetic_preserves_dtype(expr):
    x = _t(4, 3)
    _assert_float32_through_backward(expr(x), x)


def test_tensor_matmul_preserves_dtype():
    a, b = _t(3, 4), _t(4, 5, seed=1)
    _assert_float32_through_backward(a @ b, a, b)


def test_assert_preserves_dtype_flags_a_leak():
    x = _t(2, 2)
    promoted = Tensor(x.data.astype(np.float64))
    with pytest.raises(AssertionError, match="float-promotion leak"):
        assert_preserves_dtype(promoted, x)
    with pytest.raises(ValueError):
        assert_preserves_dtype(promoted)
