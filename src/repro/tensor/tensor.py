"""Reverse-mode autodiff tensor.

Design notes
------------
* The graph is a DAG of :class:`Tensor` nodes; each non-leaf holds the
  tuple of parents it was computed from and a closure that maps the output
  gradient to parent gradients.  ``backward()`` walks the DAG in reverse
  topological order, accumulating into ``.grad`` ndarrays (not Tensors —
  gradients are data, never differentiated through, which matches the
  first-order use in the paper).
* Broadcasting follows NumPy semantics; :func:`_unbroadcast` reduces an
  upstream gradient back to a parent's shape by summing over broadcast
  axes.  This is where most hand-rolled engines go wrong, so it is
  property-tested against numerical gradients.
* A module-level ``no_grad`` switch disables graph construction for
  inference and for optimizer/averaging updates, keeping those updates out
  of autograd history exactly like ``torch.no_grad()``.
* A second switch, ``micro_stack(G)``, marks a forward over G micro-batches
  stacked on a new leading axis (the synchronous pipeline runner's
  groups).  Kernels read it with :func:`micro_count` at forward time:
  parameter gradients keep the leading axis, one slice per micro-batch,
  and a loss is one value per micro-batch.  Outside the context (the
  default) every kernel computes exactly its unstacked arithmetic.
* Closures read only arrays bound at forward; parameter writers rebind
  ``p.data`` and never write into it.  So a graph keeps the weights its
  forward read, which makes it PipeDream's weight stash
  (``tests/test_autograd_rebind.py``, ``tests/test_parameter_layer.py``).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "micro_stack", "micro_count", "zeros", "full"]

DEFAULT_DTYPE = np.float32

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling autograd graph construction."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def micro_count() -> int:
    """Micro-batches stacked on the leading axis of the forward being
    built; 0 outside :func:`micro_stack`."""
    return getattr(_state, "micro", 0)


@contextlib.contextmanager
def micro_stack(count: int):
    """Context for a forward over ``count`` micro-batches stacked on a new
    leading axis.

    Given the weights, the micro-batches of a synchronous pipeline are
    independent, so one call can run all of them.  Kernels capture the
    count at forward time, so the backward may run outside the context.
    Parameter gradients then come back as (count, *param.shape) stacks
    whose slice m is what micro-batch m's own backward would give; the
    caller folds them into ``.grad`` in micro-batch order.
    """
    if count < 1:
        raise ValueError(f"micro_stack needs a positive count, got {count}")
    prev = micro_count()
    _state.micro = count
    try:
        yield
    finally:
        _state.micro = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...], micro: int = 0) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting).

    With ``micro`` > 0 the leading axis of ``grad`` holds that many
    stacked micro-batches and is kept: each slice is reduced on its own,
    to (micro, *shape).  The micro axis is never summed together with
    the batch axes, which would reassociate the sums.
    """
    if micro:
        shape = (micro, *shape)
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions (behind the micro axis).
    lead = 1 if micro else 0
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(lead, lead + extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_BASIC_INDEX_TYPES = (int, np.integer, slice, type(Ellipsis), type(None))


def _is_basic_index(index: Any) -> bool:
    """True when ``index`` is pure basic indexing (no arrays/sequences),
    i.e. selects every position at most once."""
    if isinstance(index, tuple):
        return all(
            isinstance(i, _BASIC_INDEX_TYPES) and not isinstance(i, bool)
            for i in index
        )
    return isinstance(index, _BASIC_INDEX_TYPES) and not isinstance(index, bool)


def _as_array(value: Any, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor (use .data)")
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype == np.float64 and dtype is None:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """An ndarray with an optional autograd history.

    Parameters
    ----------
    data:
        Array-like payload.  Floating data defaults to float32.
    requires_grad:
        Whether gradients should be accumulated into ``.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
        _op: str = "",
    ) -> None:
        self.data = data if isinstance(data, np.ndarray) else _as_array(data)
        if requires_grad and self.data.dtype.kind != "f":
            raise TypeError(f"only floating tensors can require grad, got {self.data.dtype}")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._op = _op

    # ------------------------------------------------------------------ #
    # basic introspection

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = f", op={self._op!r}" if self._op else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag}{op})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self):
        raise ValueError(f"item() on tensor of size {self.data.size}")

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op: str,
    ) -> "Tensor":
        if not isinstance(data, np.ndarray):
            # An op on 0-d operands returns a NumPy scalar; keep its dtype
            # (the constructor would default a float64 scalar to float32).
            data = np.asarray(data)
        if _grad_enabled():
            for p in parents:
                if p.requires_grad:
                    return Tensor(
                        data, requires_grad=True, _parents=parents, _backward_fn=backward_fn, _op=op
                    )
        return Tensor(data)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through its history."""
        if not self.requires_grad:
            raise RuntimeError("backward() on tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # iterative topo sort; deep LSTM graphs overflow recursion
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward_fn is None:
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                dtype = parent.data.dtype
                if type(pgrad) is not np.ndarray or pgrad.dtype != dtype:
                    pgrad = np.asarray(pgrad, dtype=dtype)
                cur = grads.get(id(parent))
                grads[id(parent)] = pgrad if cur is None else cur + pgrad

    # ------------------------------------------------------------------ #
    # arithmetic

    def _coerce(self, other: Any) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        out = self.data + other.data

        def backward(g: np.ndarray):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._make(out, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        out = self.data - other.data

        def backward(g: np.ndarray):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)

        return Tensor._make(out, (self, other), backward, "sub")

    def __rsub__(self, other: Any) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out = a * b

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g * b, self.shape),
                _unbroadcast(g * a, other.shape),
            )

        return Tensor._make(out, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out = a / b

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g / b, self.shape),
                _unbroadcast(-g * a / (b * b), other.shape),
            )

        return Tensor._make(out, (self, other), backward, "div")

    def __rtruediv__(self, other: Any) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        a = self.data
        out = a**exponent

        def backward(g: np.ndarray):
            return (g * exponent * a ** (exponent - 1),)

        return Tensor._make(out, (self,), backward, "pow")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out = a @ b

        def backward(g: np.ndarray):
            if a.ndim == 1 and b.ndim == 1:  # inner product
                return g * b, g * a
            if a.ndim == 1:  # (k,) @ (..., k, n)
                ga = (g[..., None, :] * b).sum(axis=-1)
                ga = _unbroadcast(ga, a.shape)
                gb = _unbroadcast(a[..., :, None] * g[..., None, :], b.shape)
                return ga, gb
            if b.ndim == 1:  # (..., m, k) @ (k,)
                ga = g[..., :, None] * b
                ga = _unbroadcast(ga, a.shape)
                gb = _unbroadcast((a * g[..., :, None]).sum(axis=tuple(range(a.ndim - 1))), b.shape)
                return ga, gb
            ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
            return ga, gb

        return Tensor._make(out, (self, other), backward, "matmul")

    # ------------------------------------------------------------------ #
    # elementwise math

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return Tensor._make(out, (self,), lambda g: (g * out,), "exp")

    def log(self) -> "Tensor":
        a = self.data
        return Tensor._make(np.log(a), (self,), lambda g: (g / a,), "log")

    def abs(self) -> "Tensor":
        a = self.data
        return Tensor._make(np.abs(a), (self,), lambda g: (g * np.sign(a),), "abs")

    # ------------------------------------------------------------------ #
    # reductions

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            g_exp = g
            if not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.ndim for a in axes):
                    g_exp = np.expand_dims(g_exp, ax)
            return (np.broadcast_to(g_exp, self.shape).copy(),)

        return Tensor._make(np.asarray(out), (self,), backward, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self.data
        out = a.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            if axis is None:
                mask = (a == out).astype(a.dtype)
                mask /= mask.sum()
                return (mask * g,)
            out_keep = a.max(axis=axis, keepdims=True)
            mask = (a == out_keep).astype(a.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (mask * g_exp,)

        return Tensor._make(np.asarray(out), (self,), backward, "max")

    def var(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # shape ops

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        return Tensor._make(out, (self,), lambda g: (g.reshape(self.shape),), "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        out = self.data.transpose(axes)
        return Tensor._make(out, (self,), lambda g: (g.transpose(inverse),), "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index: Any) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        out = self.data[index]

        if _is_basic_index(index):
            # Basic indices (ints/slices) select each position at most once,
            # so the scatter-add degenerates to an assignment into zeros —
            # much faster than np.add.at's buffered fancy-index path.
            def backward(g: np.ndarray):
                full = np.zeros_like(self.data)
                full[index] = g
                return (full,)
        else:
            def backward(g: np.ndarray):
                full = np.zeros_like(self.data)
                np.add.at(full, index, g)
                return (full,)

        return Tensor._make(np.asarray(out), (self,), backward, "getitem")

    def squeeze(self, axis: int | None = None) -> "Tensor":
        out = self.data.squeeze(axis=axis)
        return Tensor._make(out, (self,), lambda g: (g.reshape(self.shape),), "squeeze")

    def unsqueeze(self, axis: int) -> "Tensor":
        out = np.expand_dims(self.data, axis)
        return Tensor._make(out, (self,), lambda g: (g.reshape(self.shape),), "unsqueeze")

    # ------------------------------------------------------------------ #
    # comparison helpers (non-differentiable, return plain arrays)

    def argmax(self, axis: int | None = None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __eq__(self, other: Any):  # type: ignore[override]
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data == other_data

    def __hash__(self) -> int:
        return id(self)


# ---------------------------------------------------------------------- #
# constructors


def zeros(*shape: int, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    """A zero-filled Tensor of the given shape."""
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def full(shape: tuple[int, ...], value: float, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    """A constant-filled Tensor of the given shape."""
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=requires_grad)
