"""Activation layer (module wrapper around the functional form)."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor, tanh

__all__ = ["Tanh"]


class Tanh(Module):
    """Module wrapper around :func:`repro.tensor.tanh`."""
    def forward(self, x: Tensor) -> Tensor:
        return tanh(x)
