"""Layer-cost modelling and pipeline-stage partitioning.

The paper reuses PipeDream's partitioner (§6); this package implements it:
:mod:`cost_model` annotates per-layer compute, activation and parameter
costs, and :mod:`partitioner` runs the PipeDream dynamic program
that cuts the layer chain into K stages minimizing the pipeline's
bottleneck (max per-stage) time including activation communication.
"""

from repro.graph.cost_model import LayerCost, model_costs
from repro.graph.partitioner import (
    Partition,
    balanced_bottleneck,
    partition_model,
    partition_uniform,
    search_partition_placement,
    stage_memory_bytes,
    stage_spans,
)

__all__ = [
    "LayerCost",
    "model_costs",
    "Partition",
    "partition_model",
    "partition_uniform",
    "stage_spans",
    "balanced_bottleneck",
    "stage_memory_bytes",
    "search_partition_placement",
]
