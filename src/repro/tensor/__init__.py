"""A small reverse-mode automatic-differentiation engine over NumPy.

This package is the substrate standing in for PyTorch's tensor library in
the AvgPipe reproduction.  It provides:

* :class:`~repro.tensor.tensor.Tensor` — an ndarray wrapper carrying a
  gradient and a backward graph,
* :mod:`~repro.tensor.functional` — differentiable neural-net primitives
  (softmax, cross-entropy, GELU, dropout, ...),
* :func:`~repro.tensor.gradcheck.gradcheck` — numerical verification of
  analytic gradients, used heavily by the test suite.

The engine is deliberately eager and single-threaded: pipeline-parallel
*timing* is handled by the cluster simulator (:mod:`repro.sim`), while this
engine supplies the *numerics* (so elastic averaging, stale weights and
optimizer coupling behave exactly as in a real framework).
"""

from repro.tensor.tensor import Tensor, micro_count, micro_stack, no_grad, zeros, full
from repro.tensor.functional import (
    assert_preserves_dtype,
    cat,
    cross_entropy,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    lstm_cell,
    lstm_sequence,
    nll_loss,
    relu,
    scaled_dot_attention,
    sigmoid,
    softmax,
    stack,
    tanh,
    where,
)
from repro.tensor.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "no_grad",
    "micro_stack",
    "micro_count",
    "zeros",
    "full",
    "cat",
    "stack",
    "where",
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
    "linear",
    "lstm_cell",
    "lstm_sequence",
    "scaled_dot_attention",
    "assert_preserves_dtype",
    "gradcheck",
]
