"""Property-based tests (hypothesis) on the autograd engine.

The key invariant: for any composition of ops, analytic gradients match
central finite differences.  We also check structural identities that
must hold for arbitrary shapes (broadcast-reduce duality, reshape
round-trips, linearity of backward).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, gradcheck, softmax
from repro.tensor.tensor import _unbroadcast
from tests.tensors import tensor

shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


def arrays(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=st.integers(0, 10_000))
def test_unbroadcast_inverts_broadcast(shape, seed):
    """Summing a broadcast gradient back must preserve totals."""
    rng = np.random.default_rng(seed)
    big_shape = (3,) + shape
    grad = rng.standard_normal(big_shape)
    reduced = _unbroadcast(grad, shape)
    assert reduced.shape == shape
    assert np.isclose(reduced.sum(), grad.sum())


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    inner=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_matmul_gradcheck_random_shapes(rows, inner, cols, seed):
    a = tensor(arrays((rows, inner), seed), requires_grad=True, dtype=np.float64)
    b = tensor(arrays((inner, cols), seed + 1), requires_grad=True, dtype=np.float64)
    assert gradcheck(lambda x, y: x @ y, [a, b])


@settings(max_examples=30, deadline=None)
@given(shape=shapes, seed=st.integers(0, 10_000))
def test_elementwise_chain_gradcheck(shape, seed):
    x = tensor(arrays(shape, seed) * 0.5, requires_grad=True, dtype=np.float64)
    assert gradcheck(lambda t: (t * t + t).exp().log(), [x], atol=5e-3)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=2, max_size=3).map(tuple),
    seed=st.integers(0, 10_000),
)
def test_softmax_rows_always_sum_to_one(shape, seed):
    x = tensor(arrays(shape, seed) * 10)
    out = softmax(x, axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-5)
    assert np.all(out.data >= 0)


@settings(max_examples=30, deadline=None)
@given(shape=shapes, seed=st.integers(0, 10_000))
def test_backward_is_linear_in_upstream_gradient(shape, seed):
    """backward(2g) must give exactly twice backward(g)."""

    def run(scale):
        x = tensor(arrays(shape, seed), requires_grad=True, dtype=np.float64)
        out = x * x * 3.0
        out.backward(np.full(shape, scale, dtype=np.float64))
        return x.grad

    assert np.allclose(run(2.0), 2.0 * run(1.0))


@settings(max_examples=30, deadline=None)
@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=2).map(tuple),
    seed=st.integers(0, 10_000),
)
def test_reshape_transpose_roundtrip_gradient_is_identity(shape, seed):
    x = tensor(arrays(shape, seed), requires_grad=True, dtype=np.float64)
    out = x.T.reshape(*shape)
    out.sum().backward()
    assert np.allclose(x.grad, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 8),
    c=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_cross_entropy_bounded_below_by_zero(n, c, seed):
    from repro.tensor import cross_entropy

    rng = np.random.default_rng(seed)
    logits = tensor(rng.standard_normal((n, c)) * 3, requires_grad=True, dtype=np.float64)
    targets = rng.integers(0, c, size=n)
    loss = cross_entropy(logits, targets)
    assert loss.item() >= 0.0
    loss.backward()
    # Gradient rows sum to zero (softmax minus one-hot property).
    assert np.allclose(logits.grad.sum(axis=1), 0.0, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(shape=shapes, seed=st.integers(0, 10_000))
def test_sum_then_backward_gives_ones(shape, seed):
    x = tensor(arrays(shape, seed), requires_grad=True, dtype=np.float64)
    x.sum().backward()
    assert np.allclose(x.grad, np.ones(shape))
