"""Bitwise gates for the fused hot-path ops.

Every fused kernel in ``repro.tensor.functional`` replaced a composed
Tensor-op chain *without changing a single bit of output*.  These tests
pin that contract: forward values and every gradient must be
bit-identical (``np.array_equal``, NaN-safe) to the composed reference,
in both float32 and float64.
"""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.functional import _sigmoid_raw, dropout, sigmoid, softmax
from repro.tensor.functional import tanh as ftanh


def _bits_equal(name, a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    assert np.array_equal(a, b, equal_nan=True), (
        f"{name}: max diff "
        f"{np.abs(a.astype(np.float64) - b.astype(np.float64)).max()}"
    )


# --------------------------------------------------------------------- #
# sigmoid: branch-free form vs the masked sign-split


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_raw_matches_masked_reference_bitwise(dtype):
    rng = np.random.default_rng(0)
    x = (rng.standard_normal((64, 128)) * 6).astype(dtype)
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    uint = np.uint32 if dtype == np.float32 else np.uint64
    assert (_sigmoid_raw(x).view(uint) == ref.view(uint)).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_raw_matches_where_form_on_special_values(dtype):
    """``np.maximum(e, x >= 0)`` is bytewise the ``np.where(x >= 0, 1.0, e)``
    numerator it replaced, on the values where the two could part."""
    info = np.finfo(dtype)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0, -710.0,
         info.smallest_subnormal, -info.smallest_subnormal,
         info.smallest_normal, -info.smallest_normal, info.max, -info.max],
        dtype=dtype,
    )
    rng = np.random.default_rng(3)
    x = np.concatenate([specials, (rng.standard_normal(4096) * 40).astype(dtype)])
    e = np.exp(-np.abs(x))
    ref = np.where(x >= 0, 1.0, e) / (1.0 + e)
    assert ref.dtype == dtype
    assert _sigmoid_raw(x).tobytes() == ref.tobytes()


# --------------------------------------------------------------------- #
# linear: fused matmul+bias vs x @ W.T + b


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 16), (4, 7, 16)])
def test_linear_matches_composed_bitwise(dtype, shape):
    rng = np.random.default_rng(1)
    xv = rng.standard_normal(shape).astype(dtype)
    wv = rng.standard_normal((5, 16)).astype(dtype)
    bv = rng.standard_normal((5,)).astype(dtype)
    g = rng.standard_normal(shape[:-1] + (5,)).astype(dtype)

    x1, w1, b1 = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
    out1 = x1 @ w1.T + b1
    out1.backward(g)

    x2, w2, b2 = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
    out2 = F.linear(x2, w2, b2)
    out2.backward(g)

    _bits_equal("fwd", out1.data, out2.data)
    _bits_equal("dx", x1.grad, x2.grad)
    _bits_equal("dw", w1.grad, w2.grad)
    _bits_equal("db", b1.grad, b2.grad)


# --------------------------------------------------------------------- #
# lstm_cell: fused gate stack vs the composed chain, unrolled T steps


def _composed_cell(x, h, c, wih, whh, bias, hs):
    gates = x @ wih.T + h @ whh.T + bias
    i = sigmoid(gates[:, 0 * hs : 1 * hs])
    f = sigmoid(gates[:, 1 * hs : 2 * hs])
    g = ftanh(gates[:, 2 * hs : 3 * hs])
    o = sigmoid(gates[:, 3 * hs : 4 * hs])
    c_next = f * c + i * g
    h_next = o * ftanh(c_next)
    return h_next, c_next


def _lstm_fixture(dtype, B=8, D=10, H=12, T=6, seed=2):
    rng = np.random.default_rng(seed)
    return {
        "wih": rng.standard_normal((4 * H, D)).astype(dtype),
        "whh": rng.standard_normal((4 * H, H)).astype(dtype),
        "bias": rng.standard_normal((4 * H,)).astype(dtype),
        "xs": [rng.standard_normal((B, D)).astype(dtype) for _ in range(T)],
        "gh": rng.standard_normal((B, H)).astype(dtype),
        "gc": rng.standard_normal((B, H)).astype(dtype),
        "B": B, "H": H, "T": T,
    }


def _run_lstm_chain(fix, dtype, fused: bool):
    wih = Tensor(fix["wih"].copy(), requires_grad=True)
    whh = Tensor(fix["whh"].copy(), requires_grad=True)
    bias = Tensor(fix["bias"].copy(), requires_grad=True)
    xts = [Tensor(v.copy(), requires_grad=True) for v in fix["xs"]]
    h = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
    c = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
    for t in range(fix["T"]):
        if fused:
            h, c = F.lstm_cell(xts[t], h, c, wih, whh, bias, fix["H"])
        else:
            h, c = _composed_cell(xts[t], h, c, wih, whh, bias, fix["H"])
    # drive gradients through BOTH outputs
    loss = (h * Tensor(fix["gh"])).sum() + (c * Tensor(fix["gc"])).sum()
    loss.backward()
    return h.data, c.data, wih.grad, whh.grad, bias.grad, [x.grad for x in xts]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_cell_chain_matches_composed_bitwise(dtype):
    fix = _lstm_fixture(dtype)
    h1, c1, gw1, gu1, gb1, gx1 = _run_lstm_chain(fix, dtype, fused=False)
    h2, c2, gw2, gu2, gb2, gx2 = _run_lstm_chain(fix, dtype, fused=True)
    _bits_equal("h", h1, h2)
    _bits_equal("c", c1, c2)
    _bits_equal("dwih", gw1, gw2)
    _bits_equal("dwhh", gu1, gu2)
    _bits_equal("db", gb1, gb2)
    for t in range(fix["T"]):
        _bits_equal(f"dx[{t}]", gx1[t], gx2[t])


def test_lstm_cell_c_only_loss_still_drives_gradients():
    # A loss reaching only c_next (gradcheck-style) must flow through the
    # stashed-cell-gradient plumbing identically to the composed form.
    dtype = np.float64
    fix = _lstm_fixture(dtype, T=1)

    def run(fused):
        wih = Tensor(fix["wih"].copy(), requires_grad=True)
        xt = Tensor(fix["xs"][0].copy(), requires_grad=True)
        whh = Tensor(fix["whh"].copy(), requires_grad=True)
        bias = Tensor(fix["bias"].copy(), requires_grad=True)
        h0 = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
        c0 = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
        fn = F.lstm_cell if fused else _composed_cell
        args = (xt, h0, c0, wih, whh, bias, fix["H"])
        _, c = fn(*args)
        c.sum().backward()
        return wih.grad, xt.grad

    gw1, gx1 = run(fused=False)
    gw2, gx2 = run(fused=True)
    _bits_equal("c-only dwih", gw1, gw2)
    _bits_equal("c-only dx", gx1, gx2)


# --------------------------------------------------------------------- #
# scaled_dot_attention: fused softmax-attention vs the composed chain


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("use_mask", [False, True])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_matches_composed_bitwise(dtype, use_mask, p):
    rng = np.random.default_rng(3)
    B, Hh, Tq, Tk, dh = 2, 3, 5, 7, 4
    qv = rng.standard_normal((B, Hh, Tq, dh)).astype(dtype)
    kv = rng.standard_normal((B, Hh, Tk, dh)).astype(dtype)
    vv = rng.standard_normal((B, Hh, Tk, dh)).astype(dtype)
    g = rng.standard_normal((B, Hh, Tq, dh)).astype(dtype)
    scale = 1.0 / np.sqrt(dh)
    bias_arr = None
    if use_mask:
        m = rng.random((B, 1, Tq, Tk)) < 0.8
        bias_arr = np.where(m, 0.0, -1e9).astype(dtype)

    q1, k1, v1 = (Tensor(v.copy(), requires_grad=True) for v in (qv, kv, vv))
    scores = (q1 @ k1.transpose(0, 1, 3, 2)) * scale
    if bias_arr is not None:
        scores = scores + Tensor(bias_arr)
    attn = softmax(scores, axis=-1)
    attn = dropout(attn, p, np.random.default_rng(42), training=True)
    out1 = attn @ v1
    out1.backward(g)

    q2, k2, v2 = (Tensor(v.copy(), requires_grad=True) for v in (qv, kv, vv))
    out2 = F.scaled_dot_attention(
        q2, k2, v2, scale=scale, bias=bias_arr,
        dropout_p=p, rng=np.random.default_rng(42), training=True,
    )
    out2.backward(g)

    _bits_equal("fwd", out1.data, out2.data)
    _bits_equal("dq", q1.grad, q2.grad)
    _bits_equal("dk", k1.grad, k2.grad)
    _bits_equal("dv", v1.grad, v2.grad)


# --------------------------------------------------------------------- #
# lstm_sequence: one node per layer vs the unrolled lstm_cell chain


def _bytes_equal(name, a, b):
    """Stricter than ``_bits_equal``: the sign of zero and the memory
    layout count too (a gradient's layout fixes the order later
    reductions, such as the clipping norm, sum it in)."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.strides == b.strides, f"{name}: strides {a.strides} != {b.strides}"
    assert a.tobytes() == b.tobytes(), name


def _sequence_fixture(dtype, B, T, D=5, H=4, seed=7, transposed=False):
    """Inputs of one layer; ``transposed`` lays ``x`` out time-major, so
    the (B, T, D) array the kernel sees is a non-contiguous view."""
    rng = np.random.default_rng(seed)
    masks = (rng.random((T, 4 * H, H)) < 0.7).astype(dtype) / 0.7
    x = rng.standard_normal((B, T, D)).astype(dtype)
    if transposed:
        x = x.transpose(1, 0, 2).copy().transpose(1, 0, 2)
    return {
        "x": x,
        "wih": rng.standard_normal((4 * H, D)).astype(dtype),
        "whh": rng.standard_normal((4 * H, H)).astype(dtype),
        "bias": rng.standard_normal((4 * H,)).astype(dtype),
        "masks": masks,
        "g": rng.standard_normal((B, T, H)).astype(dtype),
        "H": H,
    }


def _unrolled_sequence(x, wih, whh, bias, hs, hh_masked=None):
    """The per-step reference chain: slice, cell, stack; a masked
    ``W_hh`` is swapped into the parameter for its own step."""
    h = Tensor(np.zeros((x.shape[0], hs), np.float32))
    c = Tensor(np.zeros((x.shape[0], hs), np.float32))
    original = whh.data
    outs = []
    for t in range(x.shape[1]):
        if hh_masked is not None:
            whh.data = hh_masked[t]
        h, c = F.lstm_cell(x[:, t, :], h, c, wih, whh, bias, hs)
        whh.data = original
        outs.append(h)
    return F.stack(outs, axis=1)


def _run_sequence(fix, fused, masked, x_grad=True):
    # copy(order="K") keeps a transposed x transposed.
    x, wih, whh, bias = (
        Tensor(fix[k].copy(order="K"), requires_grad=k != "x" or x_grad)
        for k in ("x", "wih", "whh", "bias")
    )
    hh_masked = fix["whh"] * fix["masks"] if masked else None
    fn = F.lstm_sequence if fused else _unrolled_sequence
    out = fn(x, wih, whh, bias, fix["H"], hh_masked)
    out.backward(fix["g"])
    return out.data, x.grad, wih.grad, whh.grad, bias.grad


# (B, T, D, H, x transposed, x takes grad).  (5, 12, 24, 32) and
# (40, 12, 32, 32) are the AWD-LSTM layer shapes at the pipelined
# workload's 5-sample micro-batches and at the whole-model batch of 40.
_SEQUENCE_CASES = [
    pytest.param(3, 6, 5, 4, False, True, id="3-6"),
    pytest.param(3, 1, 5, 4, False, True, id="3-1"),
    pytest.param(1, 6, 5, 4, False, True, id="1-6"),
    pytest.param(5, 12, 24, 32, False, True, id="5-12-24-32"),
    pytest.param(40, 12, 32, 32, False, True, id="40-12-32-32"),
    pytest.param(3, 6, 5, 4, True, True, id="3-6-transposed-x"),
    pytest.param(5, 12, 24, 32, True, True, id="5-12-24-32-transposed-x"),
    pytest.param(5, 12, 24, 32, False, False, id="5-12-24-32-x-without-grad"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("B,T,D,H,transposed,x_grad", _SEQUENCE_CASES)
def test_lstm_sequence_matches_unrolled_cells_bitwise(
    dtype, masked, B, T, D, H, transposed, x_grad
):
    fix = _sequence_fixture(dtype, B, T, D, H, transposed=transposed)
    assert fix["x"].flags.c_contiguous != transposed
    ref = _run_sequence(fix, fused=False, masked=masked, x_grad=x_grad)
    got = _run_sequence(fix, fused=True, masked=masked, x_grad=x_grad)
    for name, a, b in zip(("out", "dx", "dwih", "dwhh", "db"), ref, got):
        if name == "dx" and not x_grad:
            assert a is None and b is None
            continue
        _bytes_equal(name, a, b)


def test_lstm_sequence_is_one_node_with_the_weight_parents():
    fix = _sequence_fixture(np.float32, 2, 4)
    x, wih, whh, bias = (
        Tensor(fix[k], requires_grad=True) for k in ("x", "wih", "whh", "bias")
    )
    out = F.lstm_sequence(x, wih, whh, bias, fix["H"])
    assert out._op == "lstm_sequence"
    assert out._parents == (x, wih, whh, bias)


def test_lstm_sequence_builds_no_node_under_no_grad():
    from repro.tensor import no_grad

    fix = _sequence_fixture(np.float32, 2, 4)
    x, wih, whh, bias = (
        Tensor(fix[k], requires_grad=True) for k in ("x", "wih", "whh", "bias")
    )
    with no_grad():
        out = F.lstm_sequence(x, wih, whh, bias, fix["H"])
    assert not out.requires_grad and out._parents == () and out._op == ""
    _bytes_equal("no_grad out", out.data, F.lstm_sequence(x, wih, whh, bias, fix["H"]).data)


# --------------------------------------------------------------------- #
# WeightDrop: one batched draw per layer vs one draw per step


def _weight_drop(p=0.3, seed=5):
    from repro.nn import LSTMCell, WeightDrop

    wd = WeightDrop(LSTMCell(3, 4), "weight_hh", p=p)
    wd._rng = np.random.default_rng(seed)
    return wd


def test_batched_mask_draw_matches_per_step_draws():
    wd, T = _weight_drop(), 6
    weight = wd.inner.weight_hh
    rng = np.random.default_rng(5)
    keep = 1.0 - wd.p
    per_step = [
        weight.data * ((rng.random(weight.shape) < keep).astype(weight.dtype) / keep)
        for _ in range(T)
    ]
    batched = wd.masked(T)
    for t in range(T):
        _bytes_equal(f"mask[{t}]", per_step[t], batched[t])
    assert wd._rng.bit_generator.state == rng.bit_generator.state


def test_eval_mode_draws_no_mask():
    wd = _weight_drop()
    before = wd._rng.bit_generator.state
    wd.eval()
    assert wd.masked(6) is None
    assert wd._rng.bit_generator.state == before


# --------------------------------------------------------------------- #
# The two recurrent layers vs the per-step loop they used to run


def _awd_layer(dtype, weight_drop):
    from repro.models.awd_lstm import AWDConfig, WeightDroppedLSTMLayer

    cfg = AWDConfig(embed_dim=5, hidden_dim=4, bptt=6, weight_drop=weight_drop)
    layer = WeightDroppedLSTMLayer(cfg, 0)
    for p in layer.parameters():
        p.data = p.data.astype(dtype)
    layer.wrapped._rng = np.random.default_rng(3)
    return layer


def _awd_per_step(layer, x):
    """``WeightDroppedLSTMLayer.forward`` as a per-step loop: one mask
    draw and one masked cell step per time step."""
    wd = layer.wrapped
    cell = wd.inner
    masked = None
    if wd.training and wd.p > 0.0:
        keep = 1.0 - wd.p
        masked = [
            cell.weight_hh.data
            * ((wd._rng.random(cell.weight_hh.shape) < keep).astype(cell.weight_hh.dtype) / keep)
            for _ in range(x.shape[1])
        ]
    return _unrolled_sequence(
        x, cell.weight_ih, cell.weight_hh, cell.bias, cell.hidden_size, masked
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_drop", [0.0, 0.4])
@pytest.mark.parametrize("training", [True, False])
def test_awd_layer_matches_per_step_loop(dtype, weight_drop, training):
    fix = _sequence_fixture(dtype, 3, 6)
    results = []
    for fused in (False, True):
        layer = _awd_layer(dtype, weight_drop)
        layer.train(training)
        x = Tensor(fix["x"].copy(), requires_grad=True)
        if fused:
            out = layer({"hidden": x})["hidden"]
        else:
            out = _awd_per_step(layer, x)
        out.backward(fix["g"])
        results.append(
            [out.data, x.grad] + [p.grad for p in layer.parameters()]
            + [layer.wrapped._rng.bit_generator.state]
        )
    ref, got = results
    assert ref[-1] == got[-1]  # same generator state: same number of draws
    for k, (a, b) in enumerate(zip(ref[:-1], got[:-1])):
        _bytes_equal(f"awd[{k}]", a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer_index", [0, 1])
def test_gnmt_encoder_layer_matches_per_step_loop(dtype, layer_index):
    from repro.models.gnmt import EncoderLSTMLayer, GNMTConfig

    cfg = GNMTConfig(embed_dim=4, hidden_dim=4, src_len=6)
    fix = _sequence_fixture(dtype, 3, 6, D=4)
    key = "src_emb" if layer_index == 0 else "enc_out"
    results = []
    for fused in (False, True):
        layer = EncoderLSTMLayer(cfg, layer_index)
        for p in layer.parameters():
            p.data = p.data.astype(dtype)
        x = Tensor(fix["x"].copy(), requires_grad=True)
        if fused:
            out = layer({key: x})["enc_out"]
        else:
            cell = layer.cell
            out = _unrolled_sequence(
                x, cell.weight_ih, cell.weight_hh, cell.bias, cell.hidden_size
            )
            if layer.residual:
                out = out + x
        out.backward(fix["g"])
        results.append([out.data, x.grad] + [p.grad for p in layer.parameters()])
    for k, (a, b) in enumerate(zip(*results)):
        _bytes_equal(f"gnmt[{k}]", a, b)


# --------------------------------------------------------------------- #
# micro_stack: G micro-batches stacked on a leading axis vs G calls
#
# The synchronous runner runs a group of micro-batches as one stacked
# call.  Every kernel must give, slice by slice, the bytes (values and
# layout) of one call per micro-batch: the output, every input gradient
# and each parameter's gradient total of that call.


def _run_separate(kernel, params, micros, grads, raw, seed):
    rng = np.random.default_rng(seed)
    outs, input_grads, param_grads = [], [], []
    for inputs, g in zip(micros, grads):
        P = {k: Tensor(v.copy(), requires_grad=True) for k, v in params.items()}
        X = {
            k: v if k in raw or v.dtype.kind != "f" else Tensor(v.copy(), requires_grad=True)
            for k, v in inputs.items()
        }
        out = kernel(P, X, rng)
        out.backward(g)
        outs.append(out.data)
        input_grads.append({k: t.grad for k, t in X.items() if isinstance(t, Tensor)})
        param_grads.append({k: t.grad for k, t in P.items()})
    return outs, input_grads, param_grads, rng.bit_generator.state


def _run_stacked(kernel, params, micros, grads, raw, seed):
    from repro.tensor import micro_stack

    rng = np.random.default_rng(seed)
    P = {k: Tensor(v.copy(), requires_grad=True) for k, v in params.items()}
    stacked = {k: np.stack([m[k] for m in micros]) for k in micros[0]}
    X = {
        k: v if k in raw or v.dtype.kind != "f" else Tensor(v, requires_grad=True)
        for k, v in stacked.items()
    }
    with micro_stack(len(micros)):
        out = kernel(P, X, rng)
    out.backward(np.stack(grads))  # closures captured G at forward time
    input_grads = {k: t.grad for k, t in X.items() if isinstance(t, Tensor)}
    param_grads = {k: t.grad for k, t in P.items()}
    return out.data, input_grads, param_grads, rng.bit_generator.state


def _check_stacked(kernel, params, micros, grads, raw=(), seed=11):
    ref = _run_separate(kernel, params, micros, grads, raw, seed)
    got = _run_stacked(kernel, params, micros, grads, raw, seed)
    assert ref[3] == got[3], "the stacked call drew a different RNG stream"
    for m in range(len(micros)):
        _bytes_equal(f"out[{m}]", got[0][m], ref[0][m])
        for k, grad in ref[1][m].items():
            _bytes_equal(f"d{k}[{m}]", got[1][k][m], grad)
        for k, grad in ref[2][m].items():
            assert got[2][k].shape == (len(micros), *params[k].shape), k
            _bytes_equal(f"d{k}[{m}]", got[2][k][m], grad)


def _draws(rng, G, shape, dtype):
    return [rng.standard_normal(shape).astype(dtype) for _ in range(G)]


MICRO_CASES = pytest.mark.parametrize("G", [1, 3])
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


@DTYPES
@MICRO_CASES
@pytest.mark.parametrize("shape", [(5, 16), (4, 7, 16)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_stacked_linear_matches_separate_calls(dtype, G, shape, with_bias):
    rng = np.random.default_rng(20)
    params = {"w": rng.standard_normal((6, 16)).astype(dtype)}
    if with_bias:
        params["b"] = rng.standard_normal((6,)).astype(dtype)
    micros = [{"x": x} for x in _draws(rng, G, shape, dtype)]
    grads = _draws(rng, G, shape[:-1] + (6,), dtype)
    _check_stacked(
        lambda P, X, r: F.linear(X["x"], P["w"], P.get("b")), params, micros, grads
    )


@DTYPES
@MICRO_CASES
def test_stacked_layer_norm_matches_separate_calls(dtype, G):
    rng = np.random.default_rng(21)
    params = {
        "w": rng.standard_normal((8,)).astype(dtype),
        "b": rng.standard_normal((8,)).astype(dtype),
    }
    micros = [{"x": x} for x in _draws(rng, G, (4, 9, 8), dtype)]
    grads = _draws(rng, G, (4, 9, 8), dtype)
    _check_stacked(
        lambda P, X, r: F.layer_norm(X["x"], P["w"], P["b"]), params, micros, grads
    )


@DTYPES
@MICRO_CASES
def test_stacked_embedding_matches_separate_calls(dtype, G):
    rng = np.random.default_rng(22)
    params = {"w": rng.standard_normal((7, 5)).astype(dtype)}
    # few rows, so every micro-batch hits some row several times
    micros = [{"idx": rng.integers(0, 7, size=(4, 6))} for _ in range(G)]
    grads = _draws(rng, G, (4, 6, 5), dtype)
    _check_stacked(
        lambda P, X, r: F.embedding_lookup(P["w"], X["idx"]), params, micros, grads
    )


@DTYPES
@MICRO_CASES
@pytest.mark.parametrize("use_mask", [False, True])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_stacked_attention_matches_separate_calls(dtype, G, use_mask, p):
    rng = np.random.default_rng(23)
    B, Hh, Tq, Tk, dh = 2, 3, 5, 7, 4
    micros = []
    for _ in range(G):
        mb = {
            "q": rng.standard_normal((B, Hh, Tq, dh)).astype(dtype),
            "k": rng.standard_normal((B, Hh, Tk, dh)).astype(dtype),
            "v": rng.standard_normal((B, Hh, Tk, dh)).astype(dtype),
        }
        if use_mask:
            mb["bias"] = np.where(rng.random((B, 1, Tq, Tk)) < 0.8, 0.0, -1e9).astype(dtype)
        micros.append(mb)
    grads = _draws(rng, G, (B, Hh, Tq, dh), dtype)

    def kernel(P, X, r):
        return F.scaled_dot_attention(
            X["q"], X["k"], X["v"], scale=1.0 / np.sqrt(dh), bias=X.get("bias"),
            dropout_p=p, rng=r, training=True,
        )

    _check_stacked(kernel, {}, micros, grads, raw=("bias",))


@DTYPES
@MICRO_CASES
@pytest.mark.parametrize("ignore_index", [None, 0])
def test_stacked_loss_is_one_mean_per_micro_batch(dtype, G, ignore_index):
    rng = np.random.default_rng(24)
    micros = [
        {
            "logits": rng.standard_normal((3, 5, 6)).astype(dtype),
            "tgt": rng.integers(0, 6, size=(3, 5)),
        }
        for _ in range(G)
    ]
    grads = [np.asarray(rng.standard_normal(), dtype) for _ in range(G)]

    def kernel(P, X, r):
        logits = X["logits"]
        return F.cross_entropy(
            logits.reshape(-1, logits.shape[-1]), X["tgt"], ignore_index=ignore_index
        )

    _check_stacked(kernel, {}, micros, grads)


def _sequence_params(rng, dtype, D, H):
    return {
        "wih": rng.standard_normal((4 * H, D)).astype(dtype),
        "whh": rng.standard_normal((4 * H, H)).astype(dtype),
        "bias": rng.standard_normal((4 * H,)).astype(dtype),
    }


@DTYPES
@MICRO_CASES
@pytest.mark.parametrize("B,T,D,H", [(3, 6, 5, 4), (5, 12, 24, 32)])
@pytest.mark.parametrize("masked", [False, True])
def test_stacked_lstm_sequence_matches_separate_calls(dtype, G, B, T, D, H, masked):
    rng = np.random.default_rng(25)
    params = _sequence_params(rng, dtype, D, H)
    micros = []
    for x in _draws(rng, G, (B, T, D), dtype):
        mb = {"x": x}
        if masked:  # each micro-batch has its own DropConnect masks
            mb["mask"] = (rng.random((T, 4 * H, H)) < 0.7).astype(dtype) / 0.7
        micros.append(mb)
    grads = _draws(rng, G, (B, T, H), dtype)

    def kernel(P, X, r):
        hh = X["mask"] * P["whh"].data if masked else None
        return F.lstm_sequence(X["x"], P["wih"], P["whh"], P["bias"], H, hh_masked=hh)

    _check_stacked(kernel, params, micros, grads, raw=("mask",))


@DTYPES
@MICRO_CASES
def test_stacked_lstm_cell_matches_separate_calls(dtype, G):
    """Two steps, so each weight has two graph sites in one backward."""
    rng = np.random.default_rng(26)
    B, D, H = 4, 5, 6
    params = _sequence_params(rng, dtype, D, H)
    micros = [
        {
            "x0": rng.standard_normal((B, D)).astype(dtype),
            "x1": rng.standard_normal((B, D)).astype(dtype),
            "h": rng.standard_normal((B, H)).astype(dtype),
            "c": rng.standard_normal((B, H)).astype(dtype),
        }
        for _ in range(G)
    ]
    grads = _draws(rng, G, (B, H), dtype)

    def kernel(P, X, r):
        h, c = X["h"], X["c"]
        for x in (X["x0"], X["x1"]):
            h, c = F.lstm_cell(x, h, c, P["wih"], P["whh"], P["bias"], H)
        return h + c

    _check_stacked(kernel, params, micros, grads)


def test_stacked_dropout_draws_match_per_micro_batch_draws():
    """``WeightDrop.masked`` and a two-site ``Dropout`` draw micro-batch
    major: the stacked draw is the G unstacked draws, in order, and
    leaves each generator where they leave it."""
    from repro.nn import Dropout
    from repro.tensor import micro_stack

    G, T, shape = 3, 6, (2, 5, 4)
    separate, stacked = _weight_drop(), _weight_drop()
    per_micro = [separate.masked(T) for _ in range(G)]
    with micro_stack(G):
        masks = stacked.masked(T)
    assert masks.shape == (G, T, *separate.inner.weight_hh.shape)
    for m in range(G):
        _bytes_equal(f"weight-drop[{m}]", masks[m], per_micro[m])
    assert separate._rng.bit_generator.state == stacked._rng.bit_generator.state

    separate, stacked = Dropout(0.3), Dropout(0.3)
    separate._rng, stacked._rng = np.random.default_rng(8), np.random.default_rng(8)
    per_micro = [separate.uniforms(shape, 2) for _ in range(G)]
    with micro_stack(G):
        sites = stacked.uniforms((G, *shape), 2)
    for site in range(2):
        for m in range(G):
            _bytes_equal(f"site{site}[{m}]", sites[site][m], per_micro[m][site])
    assert separate._rng.bit_generator.state == stacked._rng.bit_generator.state
