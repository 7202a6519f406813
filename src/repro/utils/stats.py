"""Small numerically-careful statistics helpers used across benchmarks."""

from __future__ import annotations

import math

__all__ = ["geometric_mean", "speedup"]


def geometric_mean(values: list[float] | tuple[float, ...]) -> float:
    """Geometric mean; the right average for speedup ratios."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup(baseline: float, ours: float) -> float:
    """``baseline / ours`` with a guard against nonsensical inputs."""
    if baseline <= 0 or ours <= 0:
        raise ValueError(f"speedup needs positive times, got {baseline}, {ours}")
    return baseline / ours
