"""Pipeline-model abstraction.

A :class:`PipelineModel` is an ordered list of :class:`PipelineLayer`
modules.  Data flows as an *activation bundle* — a dict mapping names to
tensors (or raw integer ndarrays for token inputs).  Each layer consumes
some keys and produces others; a contiguous slice of layers is a valid
pipeline stage whose inter-stage traffic is exactly the bundle contents at
the cut point.  That makes three things uniform across GNMT / BERT /
AWD-LSTM:

* the runtime executes ``stage(bundle) -> bundle`` without model-specific
  code,
* the partitioner reads ``flops_per_sample`` / ``activation_floats_per_sample``
  per layer to balance stages and price inter-stage communication,
* the simulator prices a stage's compute from the same cost hints.

The last layer must be a loss head producing a scalar ``"loss"`` entry.
The synchronous :class:`~repro.core.pipeline.PipelinedRunner` runs a
stage on several micro-batches stacked on a leading axis, inside
``repro.tensor.micro_stack``: there a layer indexes its bundle's axes
from the end, and the loss is one value per micro-batch.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor

__all__ = ["ActivationBundle", "PipelineLayer", "PipelineModel"]

ActivationBundle = dict  # dict[str, Tensor | np.ndarray]


class PipelineLayer(Module):
    """A model slice with cost annotations.

    Subclasses implement ``forward(bundle) -> bundle`` and the two cost
    hooks.  ``carried_keys`` names bundle entries this layer merely passes
    through (they count toward inter-stage communication if a cut follows).
    """

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:  # pragma: no cover
        raise NotImplementedError

    def flops_per_sample(self) -> float:
        """Approximate multiply-accumulate count per batch sample."""
        raise NotImplementedError

    def activation_floats_per_sample(self) -> float:
        """Floats per sample in the bundle *after* this layer (the traffic
        a pipeline cut here would ship, and the stash cost of one
        micro-batch sample)."""
        raise NotImplementedError


class PipelineModel(Module):
    """An ordered pipeline of layers plus workload metadata.

    The layers are registered as child modules ``layer{i}``, so the
    parameter walk, ``state_dict`` / ``load_state_dict``, ``zero_grad``
    and ``train`` / ``eval`` are :class:`Module`'s.

    Attributes
    ----------
    layers:
        The :class:`PipelineLayer` sequence; ``layers[-1]`` is the loss head.
    name:
        Workload name ("gnmt" / "bert" / "awd").
    metric_mode:
        "max" if higher metric is better (BLEU, accuracy), "min" for loss.
    """

    def __init__(self, layers: list[PipelineLayer], name: str = "model", metric_mode: str = "max") -> None:
        if not layers:
            raise ValueError("PipelineModel needs at least one layer")
        if metric_mode not in ("max", "min"):
            raise ValueError(f"metric_mode must be 'max' or 'min', got {metric_mode}")
        super().__init__()
        self.layers = list(layers)
        self.name = name
        self.metric_mode = metric_mode
        for i, layer in enumerate(self.layers):
            setattr(self, f"layer{i}", layer)

    # ------------------------------------------------------------------ #
    # whole-model execution (used by data-parallel baselines and eval)

    def forward(self, batch: Mapping[str, np.ndarray]) -> ActivationBundle:
        bundle: ActivationBundle = dict(batch)
        for layer in self.layers:
            bundle = layer(bundle)
        return bundle

    def loss(self, batch: Mapping[str, np.ndarray]) -> Tensor:
        bundle = self.forward(batch)
        if "loss" not in bundle:
            raise KeyError("final layer did not produce a 'loss' entry")
        return bundle["loss"]

    def seed(self, seed: int) -> "PipelineModel":
        # Per-layer streams, not Module.seed's per-module derivation.
        for i, layer in enumerate(self.layers):
            layer.seed(seed * 1000003 + i)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def slice_layers(self, start: int, stop: int) -> list[PipelineLayer]:
        """The layers of stage [start, stop) — validated contiguous cut."""
        if not 0 <= start < stop <= len(self.layers):
            raise IndexError(f"invalid stage slice [{start}, {stop}) of {len(self.layers)} layers")
        return self.layers[start:stop]
