"""Dropout variants, including the DropConnect used by AWD-LSTM."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, dropout, micro_count

__all__ = ["Dropout", "WeightDrop"]


class Dropout(Module):
    """Standard inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor, uniform: np.ndarray | None = None) -> Tensor:
        return dropout(x, self.p, self._rng, training=self.training, uniform=uniform)

    def uniforms(self, shape: tuple[int, ...], sites: int) -> list[np.ndarray | None]:
        """Pre-drawn samples for ``sites`` calls on inputs of ``shape``.

        For a module applied at several sites of one forward.  All sites
        are drawn in one call, micro-batch major: under ``micro_stack(G)``
        the draw is (G, sites, *shape[1:]) and site i reads ``[:, i]``,
        which are the values, in the generator order, of G unstacked
        forwards each drawing its sites in turn.  Eval mode and p == 0
        draw nothing.
        """
        if not self.training or self.p == 0.0:
            return [None] * sites
        lead = 1 if micro_count() else 0
        u = self._rng.random((*shape[:lead], sites, *shape[lead:]))
        return list(np.moveaxis(u, lead, 0))

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
        """``steps`` masked copies of the weight, shape (steps, *weight.shape);
        (G, steps, *weight.shape) under ``micro_stack(G)``.

        None in eval mode or at p == 0, where every step uses the weight
        itself.  Each micro-batch's masks come from one
        ``rng.random((steps, *shape))`` call, which yields the same values,
        and leaves the generator in the same state, as one draw per step;
        the micro-batches draw in order, each into its slice of the
        result, so no (G*steps, ...) float64 sample is ever held.
        """
        if not self.training or self.p == 0.0:
            return None
        weight = getattr(self.inner, self.weight_name)
        keep = 1.0 - self.p
        micro = micro_count()
        out = np.empty((micro or 1, steps, *weight.shape), weight.dtype)
        for block in out:
            mask = (self._rng.random((steps, *weight.shape)) < keep).astype(weight.dtype) / keep
            np.multiply(weight.data, mask, out=block)
        return out if micro else out[0]

    def __repr__(self) -> str:
        return f"WeightDrop(p={self.p}, weight={self.weight_name!r})"
