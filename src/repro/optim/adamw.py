"""AdamW [Loshchilov & Hutter] — decoupled weight decay.

Not used by the paper's recipes, but the framework's §3.1 claim is
optimizer independence; AdamW is the modern default for transformer
fine-tuning, so it is provided (and exercised against the elastic
framework in tests) as part of the optimizer surface a downstream user
expects.
"""

from __future__ import annotations

import numpy as np

from repro.optim.adam import adam_moments
from repro.optim.optimizer import Optimizer

__all__ = ["AdamW"]


class AdamW(Optimizer):
    """Adam with decoupled weight decay (applied to weights directly)."""
    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.betas = (b1, b2)
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, p, grad):
        m_hat, v_hat = adam_moments(self._get_state(p), p.data, grad.astype(np.float32), self.betas)
        # Decoupled decay: applied to the weights directly, not mixed
        # into the adaptive gradient statistics (the AdamW point).
        decayed = p.data * (1.0 - self.lr * self.weight_decay)
        return decayed - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
