"""Adagrad [Duchi et al. 2011]."""

from __future__ import annotations

import numpy as np

from repro.optim.optimizer import Optimizer

__all__ = ["Adagrad"]


class Adagrad(Optimizer):
    """Adagrad: per-coordinate LR decayed by accumulated squared grads."""
    def __init__(self, params, lr: float = 1e-2, eps: float = 1e-10) -> None:
        super().__init__(params, lr)
        self.eps = eps

    def _update(self, p, grad):
        st = self._get_state(p)
        if "sum_sq" not in st:
            st["sum_sq"] = np.zeros_like(p.data, dtype=np.float32)
        acc: np.ndarray = st["sum_sq"]  # type: ignore[assignment]
        acc += grad * grad
        return p.data - self.lr * grad / (np.sqrt(acc) + self.eps)
