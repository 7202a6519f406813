"""SGD with optional momentum and weight decay."""

from __future__ import annotations

from repro.optim.optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and decay."""
    def __init__(self, params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, p, grad):
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        if self.momentum:
            st = self._get_state(p)
            buf = st.get("momentum")
            if buf is None:
                buf = grad.astype(p.dtype).copy()
            else:
                buf *= self.momentum
                buf += grad
            st["momentum"] = buf
            grad = buf
        return p.data - self.lr * grad
