"""Differentiable neural-net primitives built on :class:`~repro.tensor.Tensor`.

These are written against the raw ndarray payloads with hand-derived
backward closures (rather than composing Tensor arithmetic) where the fused
form is both faster and numerically safer — e.g. ``log_softmax`` uses the
max-subtraction trick and a fused gradient.  Every function here is covered
by ``tests/test_tensor_functional.py`` including numerical gradcheck.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.tensor import Tensor, _grad_enabled, _unbroadcast, micro_count

__all__ = [
    "relu",
    "gelu",
    "tanh",
    "sigmoid",
    "softmax",
    "log_softmax",
    "layer_norm",
    "dropout",
    "embedding_lookup",
    "cross_entropy",
    "nll_loss",
    "cat",
    "stack",
    "where",
    "linear",
    "lstm_cell",
    "lstm_sequence",
    "scaled_dot_attention",
    "assert_preserves_dtype",
]


def relu(x: Tensor) -> Tensor:
    """max(x, 0) with the indicator gradient."""
    xd = x.data
    return Tensor._make(np.maximum(xd, 0), (x,), lambda g: (g * (xd > 0),), "relu")


# Plain Python float: under NumPy's NEP-50 promotion a np.float64 scalar
# is "strong" and silently promotes float32 activations to float64, while
# a Python float is "weak" and preserves the array dtype.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU (the BERT activation)."""
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * xd**3)
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def backward(g: np.ndarray):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * xd**2)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * dt),)

    return Tensor._make(out, (x,), backward, "gelu")


def tanh(x: Tensor) -> Tensor:
    """Elementwise tanh."""
    out = np.tanh(x.data)
    return Tensor._make(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def _sigmoid_raw(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically-stable logistic sigmoid on a raw ndarray.

    Branch-free form of the classic sign-split: with e = exp(-|x|) the
    positive half is 1/(1+e) and the negative half e/(1+e) — elementwise
    the exact same expressions as the masked version, minus the fancy
    indexing.  As e <= 1, ``max(e, x >= 0)`` is the numerator: 1 where
    x >= 0, e elsewhere, NaN where x is NaN.
    """
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically-stable logistic sigmoid (split by sign)."""
    out = _sigmoid_raw(x.data)
    return Tensor._make(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis`` with the fused gradient."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._make(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted log-softmax along ``axis`` with the fused gradient."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z

    def backward(g: np.ndarray):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out, (x,), backward, "log_softmax")


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension with affine transform."""
    micro = micro_count()
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    wd = weight.data
    out = xhat * wd + bias.data

    def backward(g: np.ndarray):
        gw = _unbroadcast(g * xhat, weight.shape, micro)
        gb = _unbroadcast(g, bias.shape, micro)
        gx_hat = g * wd
        # Fused layer-norm input gradient.
        gx = (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        return gx, gw, gb

    return Tensor._make(out, (x, weight, bias), backward, "layer_norm")


def dropout(
    x: Tensor,
    p: float,
    rng: np.random.Generator,
    training: bool = True,
    uniform: np.ndarray | None = None,
) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) so eval needs no rescale.

    ``uniform`` is a pre-drawn ``rng.random(x.shape)`` sample, for a
    caller that draws several sites' samples at once; by default the
    sample is drawn here.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    if uniform is None:
        uniform = rng.random(x.shape)
    mask = (uniform < keep).astype(x.dtype) / keep
    out = x.data * mask
    return Tensor._make(out, (x,), lambda g: (g * mask,), "dropout")


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather with scatter-add backward (the Embedding layer kernel).

    Under :func:`micro_stack` the gradient is one table per micro-batch;
    each scatters its own rows in the unstacked order.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"embedding indices must be integers, got {idx.dtype}")
    micro = micro_count()
    out = weight.data[idx]

    def backward(g: np.ndarray):
        if not micro:
            gw = np.zeros_like(weight.data)
            np.add.at(gw, idx, g)
            return (gw,)
        gw = np.zeros((micro, *weight.shape), weight.dtype)
        slot = np.arange(micro).reshape((micro,) + (1,) * (idx.ndim - 1))
        np.add.at(gw, (slot, idx), g)
        return (gw,)

    return Tensor._make(out, (weight,), backward, "embedding")


def nll_loss(log_probs: Tensor, targets: np.ndarray, ignore_index: int | None = None) -> Tensor:
    """Mean negative log-likelihood over a flattened (N, C) log-prob matrix.

    Under :func:`micro_stack` (G) the N rows are G equal runs, one per
    stacked micro-batch, and the loss is one mean per run, shape (G,).
    """
    lp = log_probs.data
    if lp.ndim != 2:
        raise ValueError(f"nll_loss expects (N, C) log-probs, got shape {lp.shape}")
    tgt = np.asarray(targets).reshape(-1)
    if tgt.shape[0] != lp.shape[0]:
        raise ValueError(f"targets length {tgt.shape[0]} != batch {lp.shape[0]}")
    micro = micro_count()
    runs = micro or 1
    if ignore_index is not None:
        valid = tgt != ignore_index
    else:
        valid = np.ones_like(tgt, dtype=bool)
    count = np.maximum(valid.reshape(runs, -1).sum(axis=1), 1)  # per run
    rows = np.arange(lp.shape[0])
    picked = np.where(valid, lp[rows, np.where(valid, tgt, 0)], 0.0)
    # Each run's sum over its int count, divided in lp's dtype.
    out = -picked.reshape(runs, -1).sum(axis=1) / count.astype(lp.dtype)
    out = out if micro else out.reshape(())

    def backward(g: np.ndarray):
        gx = np.zeros_like(lp)
        gx[rows[valid], tgt[valid]] = np.repeat(-1.0 / count, lp.shape[0] // runs)[valid]
        return ((gx.reshape(runs, -1, lp.shape[1]) * g.reshape(-1, 1, 1)).reshape(lp.shape),)

    return Tensor._make(out, (log_probs,), backward, "nll_loss")


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int | None = None) -> Tensor:
    """Softmax + NLL, with logits of shape (..., C) and integer targets."""
    flat = logits.reshape(-1, logits.shape[-1]) if logits.ndim != 2 else logits
    return nll_loss(log_softmax(flat, axis=-1), targets, ignore_index=ignore_index)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; backward splits the gradient."""
    if not tensors:
        raise ValueError("cat of empty sequence")
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out, tuple(tensors), backward, "cat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``; backward unstacks."""
    if not tensors:
        raise ValueError("stack of empty sequence")
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        pieces = np.split(g, len(tensors), axis=axis)
        return tuple(p.squeeze(axis=axis) for p in pieces)

    return Tensor._make(out, tuple(tensors), backward, "stack")


# --------------------------------------------------------------------- #
# fused hot-path kernels
#
# Each of these replaces a chain of elementary Tensor ops with a single
# graph node whose forward replays the exact same ndarray expressions the
# chain would execute (same operands, same evaluation order), so outputs
# are bitwise identical to the composed form; the hand-written backward
# mirrors the chain's closure arithmetic the same way.  What they save is
# node construction, closure dispatch and per-op gradient allocation —
# the dominant cost of small-model steps in this engine.


def _transpose_tap(weight: Tensor) -> Tensor:
    """A transpose node mirroring the composed chain's ``weight.T``.

    Fused kernels route weight gradients through this node instead of
    attaching the weight directly.  When a weight feeds several graph
    sites (the recurrent matrix across timesteps, a projection reused in
    a decoding loop), the engine sums one contribution per site — and
    float addition is not associative, so the *order* those contributions
    arrive in is part of the bitwise contract.  The composed chain's
    per-call ``.T`` nodes sit at specific DFS positions which fix that
    order; a tap in the same parent slot reproduces it exactly.  The
    backward swaps the last two axes, so a (G, in, out) stack of
    per-micro-batch gradients comes back as (G, out, in).
    """
    return Tensor._make(
        weight.data.T, (weight,), lambda g: (np.swapaxes(g, -1, -2),), "transpose"
    )


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``x @ weight.T + bias`` (the Linear layer kernel).

    ``x`` must be at least 2-d; ``weight`` is (out, in).  The transposed
    weight view is captured at call time, as in the composed form.  Under
    :func:`micro_stack` the leading axis of ``x`` is the micro axis, which
    the weight and bias gradients keep.
    """
    micro = micro_count()
    w_tap = _transpose_tap(weight)
    wT = w_tap.data
    xd = x.data
    y = xd @ wT
    out = y + bias.data if bias is not None else y

    def backward(g: np.ndarray):
        dx = g @ np.swapaxes(wT, -1, -2) if x.requires_grad else None
        # Untransposed (in, out) form; the tap transposes, as ``.T`` did.
        dw = (
            _unbroadcast(np.swapaxes(xd, -1, -2) @ g, wT.shape, micro)
            if weight.requires_grad
            else None
        )
        if bias is None:
            return dx, dw
        db = _unbroadcast(g, bias.shape, micro) if bias.requires_grad else None
        return dx, dw, db

    # Parent order mirrors the composed DFS first-visit order
    # (bias, weight.T, x): parents are explored last-to-first.
    parents = (x, w_tap) if bias is None else (x, w_tap, bias)
    return Tensor._make(out, parents, backward, "linear")


def lstm_cell(
    x: Tensor,
    h: Tensor,
    c: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    hidden_size: int,
) -> tuple[Tensor, Tensor]:
    """Fused LSTM cell: one graph node for the whole gate stack.

    Computes ``gates = x @ W_ih^T + h @ W_hh^T + b`` and the i/f/g/o gate
    nonlinearities, returning ``(h_next, c_next)``.  ``c_next`` is emitted
    as a child node of ``h_next`` whose backward stashes the incoming cell
    gradient; reverse topological order guarantees the stash happens
    before ``h_next``'s backward consumes it.  Weight transpose views are
    captured at call time, as in the composed form.  Under
    :func:`micro_stack` the inputs are (G, B, ·) stacks: the matmuls run
    per micro-batch slice and every parameter gradient keeps the G axis.
    """
    micro = micro_count()
    hs = hidden_size
    wih_tap = _transpose_tap(weight_ih)
    whh_tap = _transpose_tap(weight_hh)
    wihT = wih_tap.data
    whhT = whh_tap.data
    xd, hd, cd = x.data, h.data, c.data
    gates = (xd @ wihT + hd @ whhT) + bias.data
    i = _sigmoid_raw(gates[..., 0 * hs : 1 * hs])
    f = _sigmoid_raw(gates[..., 1 * hs : 2 * hs])
    g = np.tanh(gates[..., 2 * hs : 3 * hs])
    o = _sigmoid_raw(gates[..., 3 * hs : 4 * hs])
    c_next = f * cd + i * g
    t = np.tanh(c_next)
    h_next = o * t

    if not (
        _grad_enabled()
        and (
            x.requires_grad
            or h.requires_grad
            or c.requires_grad
            or weight_ih.requires_grad
            or weight_hh.requires_grad
            or bias.requires_grad
        )
    ):
        return Tensor(h_next), Tensor(c_next)

    ctx: dict[str, np.ndarray | None] = {"gc": None}

    def backward_h(gh: np.ndarray):
        gc_ext = ctx["gc"]
        ctx["gc"] = None
        # Mirror the composed chain: h = o * tanh(c'), c' = f*c + i*g.
        gc = (gh * o) * (1.0 - t * t)
        if gc_ext is not None:
            gc = gc_ext + gc
        dgates = np.empty_like(gates)
        dgates[..., 0 * hs : 1 * hs] = (gc * g) * i * (1.0 - i)
        dgates[..., 1 * hs : 2 * hs] = (gc * cd) * f * (1.0 - f)
        dgates[..., 2 * hs : 3 * hs] = (gc * i) * (1.0 - g * g)
        dgates[..., 3 * hs : 4 * hs] = (gh * t) * o * (1.0 - o)
        dx = dgates @ np.swapaxes(wihT, -1, -2) if x.requires_grad else None
        dh = dgates @ np.swapaxes(whhT, -1, -2) if h.requires_grad else None
        dc = gc * f if c.requires_grad else None
        # Untransposed (in, 4*hidden) forms; the taps transpose them.
        dwih = (
            np.swapaxes(xd, -1, -2) @ dgates
            if weight_ih.requires_grad
            else None
        )
        dwhh = (
            np.swapaxes(hd, -1, -2) @ dgates
            if weight_hh.requires_grad
            else None
        )
        db = _unbroadcast(dgates, bias.shape, micro) if bias.requires_grad else None
        return dx, dwih, dh, dc, dwhh, db

    # Parent order matters beyond bookkeeping: the composed chain appends
    # W_hh.T before descending into the h_{t-1} subgraph (so its grads
    # accumulate oldest-step-first) but W_ih.T only after it (newest
    # first).  Placing whh's tap after h/c and wih's tap before them in
    # the parent tuple reproduces both orders under the engine's
    # last-to-first DFS.
    h_t = Tensor._make(
        h_next, (x, wih_tap, h, c, whh_tap, bias), backward_h, "lstm_cell"
    )

    def backward_c(g_in: np.ndarray):
        ctx["gc"] = g_in
        # Zero (not None) so a loss reaching only c_next still drives
        # backward_h, which is where the stashed cell gradient is spent.
        return (np.zeros_like(h_next),)

    c_t = Tensor._make(c_next, (h_t,), backward_c, "lstm_cell_c")
    return h_t, c_t


def _fold(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` along ``axis``, added in that order,
    as the engine accumulates per-step gradients.  -0.0 is the exact
    additive identity, so the sum starts from ``terms[0]`` itself; the
    implicit 0.0 start of ``np.sum`` would turn a -0.0 term into 0.0."""
    return np.add.reduce(terms, axis=axis, initial=-0.0)


def lstm_sequence(
    x: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    hidden_size: int,
    hh_masked: np.ndarray | None = None,
) -> Tensor:
    """Fused LSTM layer over a (B, T, D) sequence: one graph node.

    Runs :func:`lstm_cell`'s arithmetic for every step from zero state and
    returns the (B, T, hidden) stack of hidden states; the backward does
    the whole BPTT in one closure.  Outputs and gradients are bitwise
    those of the unrolled chain ``x[:, t]`` -> ``lstm_cell`` -> ``stack``:
    the gradient sums keep that chain's engine order (``W_ih`` and
    ``bias`` newest step first, ``W_hh`` oldest first) and the zero-add
    on each hidden-state gradient.  ``dx[:, t]`` is assigned directly: the
    chain's slice scatters add zeros to it, but a matmul output is never
    ``-0.0``, so those adds change no bit.  ``hh_masked`` holds one
    (DropConnect-masked) copy of ``weight_hh`` per step, shape (T, 4H, H);
    the gradient with respect to those copies is summed into
    ``weight_hh`` as it is, not multiplied by the mask, which is the
    update rule the pinned AWD trajectories were trained with.

    The time loops do only what depends on the previous step: the
    forward's ``h @ W_hh^T``, bias add and gate nonlinearities, and the
    backward's ``gh``, ``gc``, gate gradients and ``dh``.  The rest is one
    stacked call per layer over time-major (T, ...) buffers: ``x @ W_ih^T``,
    ``dx``, ``dW_ih``, ``dW_hh``, the bias reduction and the ``1 - ·``
    derivative terms.  Gate values are kept gate-major, (4, B, H) per
    step, so each gate is a contiguous block.  Stacking is bitwise:
    ``np.matmul`` over a (T, ...) stack runs one GEMM per slice with the
    shape and strides of the per-step call (never one (T*B, D) GEMM,
    whose blocking would reassociate the sums), the bias sum reduces over
    a non-innermost axis, which adds rows in order like the per-step
    ``sum(axis=0)``, and :func:`_fold` then adds the per-step terms in the
    chain's order.

    Under :func:`micro_stack` (G) ``x`` is a (G, B, T, D) stack and
    ``hh_masked`` a (G, T, 4H, H) one.  Every buffer then carries the
    (G, B) rows in place of (B,): the elementwise work runs over all of
    them at once, every matmul keeps the per-micro-batch (B, ·) slices,
    and the weight and bias gradients come back with the G axis, each
    slice reduced on its own.
    """
    hs = hidden_size
    xd = x.data
    m = xd.ndim - 3  # leading micro axes: 1 under micro_stack, else 0
    rows = xd.shape[:-2]  # (B,) or (G, B)
    steps = xd.shape[-2]
    # x as (T, *rows, D); ``inward`` takes (A, *rows, H) to (*rows, A, H).
    time_major = (m + 1, *range(m + 1), m + 2)
    inward = (*range(1, m + 2), 0, m + 2)
    if hh_masked is None:
        whh, whhT = [weight_hh.data] * steps, [weight_hh.data.T] * steps
    else:
        whh = hh_masked.transpose(m, *range(m), m + 1, m + 2)  # (T, [G,] 4H, H)
        whhT = np.swapaxes(whh, -1, -2)
    # Every step's x @ W_ih^T at once; the loop adds the recurrent term,
    # then the bias, in the per-step order.
    wih = weight_ih.data
    gates = np.matmul(xd.transpose(time_major), wih.T)  # (T, *rows, 4H)
    gates4 = gates.reshape(*gates.shape[:-1], 4, hs)
    dtype = gates.dtype
    # The bias add writes step t's gates gate-major, (4, B, H), so every
    # gate is a contiguous block for the elementwise work after it.
    bias4 = bias.data.reshape(4, hs)
    pre = np.empty((4, *rows, hs), dtype)
    act = np.empty((steps, 4, *rows, hs), dtype)
    g = np.empty((steps, *rows, hs), dtype)
    tc = np.empty_like(g)
    # Row t of h_buf / c_buf is step t's incoming state, row 0 the zero
    # initial state.
    h_buf = np.zeros((steps + 1, *rows, hs), dtype)
    c_buf = np.zeros_like(h_buf)
    for t in range(steps):
        gt = gates[t]
        gt += h_buf[t] @ whhT[t]
        np.add(gates4[t], bias4, out=pre.transpose(inward))
        # One sigmoid over the whole gate block: elementwise it is the
        # per-gate i/f/o calls, bit for bit.
        a = _sigmoid_raw(pre, out=act[t])
        np.tanh(pre[2], out=g[t])
        np.add(a[1] * c_buf[t], a[0] * g[t], out=c_buf[t + 1])
        np.tanh(c_buf[t + 1], out=tc[t])
        np.multiply(a[3], tc[t], out=h_buf[t + 1])
    # The g row of ``act`` is never read; it becomes the exact factor 1 of
    # the backward's gate chain.
    act[:, 2] = 1.0
    out = h_buf[1:].transpose(inward).copy()  # (*rows, T, H)

    def backward(g_out: np.ndarray):
        # Gate-major (T, 4, B, H) factors: per step, one multiply chain
        # ((lhs * fac) * act) * one_minus with lhs = (gc, gc, gc, gh) forms
        # the unrolled cell's four gate gradients,
        #   i: ((gc * g) * i) * (1 - i)     f: ((gc * c) * f) * (1 - f)
        #   g: ((gc * i) * 1) * (1 - g^2)   o: ((gh * tanh c) * o) * (1 - o)
        # where the exact factor 1 leaves the g row (gc * i) * (1 - g^2).
        fac = np.stack((g, c_buf[:-1], act[:, 0], tc), axis=1)
        one_minus = 1.0 - act
        one_minus[:, 2] = 1.0 - g * g
        dtanh_c = 1.0 - tc * tc
        lhs = np.empty_like(act[0])
        dgates = np.empty((steps, *rows, 4 * hs), dtype)
        dgates4 = dgates.reshape(steps, *rows, 4, hs)
        dh = gc_next = None
        for t in range(steps - 1, -1, -1):
            gh = g_out[..., t, :]
            if dh is not None:
                # h_t's three engine contributions: the stack slice, the
                # next step's dh and a zero from the c_t node.
                gh = (gh + dh) + 0.0
            gc = (gh * act[t, 3]) * dtanh_c[t]
            if gc_next is not None:
                gc = gc_next + gc
            lhs[:3] = gc
            lhs[3] = gh
            chain = ((lhs * fac[t]) * act[t]) * one_minus[t]
            dgates4[t] = chain.transpose(inward)
            if t > 0:  # the zero initial state takes no gradient
                dh = dgates[t] @ whh[t]
                gc_next = gc * act[t, 1]
        del fac, one_minus, dtanh_c  # freed before the stacked products
        dx = None
        if x.requires_grad:
            # x's own layout, as the chain's slice scatters leave it.
            dx = np.empty_like(xd)
            dx.transpose(time_major)[...] = np.matmul(dgates, wih)
        # The weight products per ([micro-batch,] step): ([G,] T, ·, ·)
        # stacks folded over T, newest step first for W_ih, oldest for W_hh.
        dg_steps = dgates.transpose(*range(1, m + 1), 0, m + 1, m + 2)  # ([G,] T, B, 4H)
        x_steps = xd.transpose(*range(m), m + 1, m + 2, m)  # ([G,] T, D, B)
        h_steps = h_buf[:-1].transpose(*range(1, m + 1), 0, m + 2, m + 1)  # ([G,] T, H, B)
        dwih = _fold(np.matmul(x_steps, dg_steps)[..., ::-1, :, :], axis=-3).swapaxes(-1, -2)
        dwhh = _fold(np.matmul(h_steps, dg_steps), axis=-3).swapaxes(-1, -2)
        return dx, dwih, dwhh, _fold(dgates.sum(axis=-2)[::-1])

    return Tensor._make(out, (x, weight_ih, weight_hh, bias), backward, "lstm_sequence")


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    bias: np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Fused softmax attention over (..., T, dh) heads, e.g. (B, H, T, dh).

    One node for ``softmax(q @ k^T * scale + bias)`` (optionally with
    inverted dropout on the attention weights) matmul'd against ``v``.
    ``bias`` is an additive raw-ndarray mask; it receives no gradient.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {dropout_p}")
    qd, vd = q.data, v.data
    kt = np.swapaxes(k.data, -1, -2)
    scale_arr = np.asarray(scale, dtype=qd.dtype)
    s = (qd @ kt) * scale_arr
    if bias is not None:
        s = s + bias
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    if training and dropout_p > 0.0:
        keep = 1.0 - dropout_p
        mask = (rng.random(attn.shape) < keep).astype(attn.dtype) / keep
        attn_d = attn * mask
    else:
        mask = None
        attn_d = attn
    out = attn_d @ vd

    def backward(g: np.ndarray):
        dattn = g @ np.swapaxes(vd, -1, -2)
        dv = np.swapaxes(attn_d, -1, -2) @ g if v.requires_grad else None
        if mask is not None:
            dattn = dattn * mask
        dot = (dattn * attn).sum(axis=-1, keepdims=True)
        ds = (attn * (dattn - dot)) * scale_arr
        dq = ds @ np.swapaxes(kt, -1, -2) if q.requires_grad else None
        dk = (
            np.swapaxes(np.swapaxes(qd, -1, -2) @ ds, -1, -2)
            if k.requires_grad
            else None
        )
        return dq, dk, dv

    return Tensor._make(out, (q, k, v), backward, "sdp_attention")


def assert_preserves_dtype(result: Tensor | Sequence[Tensor], *inputs: Tensor) -> None:
    """Assert every output tensor keeps the dtype of the first input.

    The regression helper for float64-promotion leaks: NumPy scalar rules
    (NEP 50) can silently upcast float32 through Python/NumPy scalar
    arithmetic, doubling memory traffic without changing semantics enough
    for tolerance-based tests to notice.
    """
    if not inputs:
        raise ValueError("assert_preserves_dtype needs at least one input tensor")
    expect = inputs[0].dtype
    outs = result if isinstance(result, (tuple, list)) else (result,)
    for idx, out in enumerate(outs):
        if out.dtype != expect:
            raise AssertionError(
                f"output {idx} has dtype {out.dtype}, expected {expect} "
                f"(float-promotion leak)"
            )


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select by a boolean condition; gradients route by it."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    out = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray):
        return (
            _unbroadcast(np.where(cond, g, 0.0), a.shape),
            _unbroadcast(np.where(cond, 0.0, g), b.shape),
        )

    return Tensor._make(out, (a, b), backward, "where")
