"""Per-layer cost annotations.

Costs are analytic: each :class:`PipelineLayer` reports
``flops_per_sample`` / ``activation_floats_per_sample`` from its shape
arithmetic (the way Megatron/PipeDream cost models are written down).

The partitioner and the cluster simulator both consume
:class:`LayerCost` rows, so a single annotation drives stage balancing,
simulated compute durations, link traffic and memory ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.pipeline_model import PipelineModel

__all__ = ["LayerCost", "model_costs"]

BYTES_PER_FLOAT = 4


@dataclass(frozen=True)
class LayerCost:
    """Costs of one pipeline layer, normalized per batch *sample*."""

    name: str
    flops_per_sample: float
    activation_bytes_per_sample: float  # bundle size flowing OUT of this layer
    param_bytes: int

    def __post_init__(self) -> None:
        if self.flops_per_sample < 0 or self.activation_bytes_per_sample < 0:
            raise ValueError(f"negative cost on layer {self.name}")


def model_costs(model: PipelineModel) -> list[LayerCost]:
    """Analytic costs for every layer of ``model``."""
    costs = []
    for i, layer in enumerate(model.layers):
        costs.append(
            LayerCost(
                name=f"{model.name}.layer{i}.{type(layer).__name__}",
                flops_per_sample=float(layer.flops_per_sample()),
                activation_bytes_per_sample=float(layer.activation_floats_per_sample()) * BYTES_PER_FLOAT,
                param_bytes=layer.parameter_bytes(),
            )
        )
    return costs
