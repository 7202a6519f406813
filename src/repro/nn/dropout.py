"""Dropout variants, including the DropConnect used by AWD-LSTM."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, dropout

__all__ = ["Dropout", "WeightDrop"]


class Dropout(Module):
    """Standard inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class WeightDrop(Module):
    """DropConnect on one recurrent weight of a wrapped module.

    This is the "weight-dropped" part of AWD-LSTM [Merity et al. 2018]:
    in training mode every time step sees its own masked copy of the
    named weight.  The wrapper keeps ``inner`` in the module tree (its
    parameters stay ``<name>.inner.*`` in the state dict) and draws the
    masks; the layer hands them to the sequence kernel.
    """

    def __init__(self, inner: Module, weight_name: str, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"weight-drop p must be in [0, 1), got {p}")
        if weight_name not in dict(inner.named_parameters()):
            raise KeyError(f"WeightDrop: {weight_name!r} not found in inner module parameters")
        self.inner = inner
        self.weight_name = weight_name
        self.p = p

    def masked(self, steps: int) -> np.ndarray | None:
        """``steps`` masked copies of the weight, shape (steps, *weight.shape).

        None in eval mode or at p == 0, where every step uses the weight
        itself.  All masks come from one ``rng.random((steps, *shape))``
        call, which yields the same values, and leaves the generator in the
        same state, as one draw per step.
        """
        if not self.training or self.p == 0.0:
            return None
        weight = getattr(self.inner, self.weight_name)
        keep = 1.0 - self.p
        mask = (self._rng.random((steps, *weight.shape)) < keep).astype(weight.dtype) / keep
        return weight.data * mask

    def __repr__(self) -> str:
        return f"WeightDrop(p={self.p}, weight={self.weight_name!r})"
