"""Weight initializers (Kaiming/uniform/normal), all taking an explicit RNG."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "uniform", "normal"]


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He uniform init: bound = sqrt(3 / fan_in)."""
    fan_in, _ = _fans(shape)
    bound = np.sqrt(3.0 / fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    """Uniform init in [-bound, bound]."""
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Gaussian init with the given standard deviation."""
    return (rng.standard_normal(shape) * std).astype(np.float32)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out
