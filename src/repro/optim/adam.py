"""Adam [Kingma & Ba 2015] — the optimizer the paper trains GNMT/BERT with."""

from __future__ import annotations

import numpy as np

from repro.optim.optimizer import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam with bias-corrected first/second moments."""
    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = (b1, b2)
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, p, grad):
        grad = grad.astype(np.float32)
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        m_hat, v_hat = adam_moments(self._get_state(p), p.data, grad, self.betas)
        return p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_moments(
    st: dict, data: np.ndarray, grad: np.ndarray, betas: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the moment estimates in ``st`` by ``grad``; return the
    bias-corrected ``(m_hat, v_hat)``.  Shared by Adam and AdamW."""
    b1, b2 = betas
    if "m" not in st:
        st["m"] = np.zeros_like(data, dtype=np.float32)
        st["v"] = np.zeros_like(data, dtype=np.float32)
        st["t"] = 0
    st["t"] = int(st["t"]) + 1
    t = st["t"]
    m: np.ndarray = st["m"]
    v: np.ndarray = st["v"]
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    v += (1 - b2) * grad * grad
    return m / (1 - b1**t), v / (1 - b2**t)
