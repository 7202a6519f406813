"""The LSTM cell (the GNMT and AWD-LSTM building block).

The cell computes the four gates in one fused matmul per input/hidden pair
— ``gates = x @ W_ih^T + h @ W_hh^T + b`` — which keeps arithmetic
intensity high (one big GEMM instead of four small ones).  The GNMT
decoder steps the cell itself, since attention sits between steps; the
AWD layers and the GNMT encoder hand the cell's weights to the
whole-sequence kernel ``lstm_sequence``.  Everything inside a step is
vectorized over the batch.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, zeros
from repro.tensor.functional import lstm_cell

__all__ = ["LSTMCell"]


class LSTMCell(Module):
    """Single-step LSTM with fused gate projection."""

    def __init__(self, input_size: int, hidden_size: int) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTMCell sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / np.sqrt(hidden_size)
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), self._rng, bound))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), self._rng, bound))
        self.bias = Parameter(init.uniform((4 * hidden_size,), self._rng, bound))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        if x.shape[-1] != self.input_size:
            raise ValueError(f"LSTMCell expected input dim {self.input_size}, got {x.shape}")
        return lstm_cell(
            x, h, c, self.weight_ih, self.weight_hh, self.bias, self.hidden_size
        )

    def init_state(self, *batch: int) -> tuple[Tensor, Tensor]:
        """Zero (h, c) of shape (*batch, hidden)."""
        return (zeros(*batch, self.hidden_size), zeros(*batch, self.hidden_size))

    def __repr__(self) -> str:
        return f"LSTMCell(in={self.input_size}, hidden={self.hidden_size})"
