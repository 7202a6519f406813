"""Averaged SGD [Polyak & Juditsky 1992] — used by the AWD-LSTM workload.

Maintains a running tail average of the iterates from step ``t0`` onward
in the optimizer state (``ax``), so it is checkpointed with the rest of
the state; :meth:`ASGD.state_dict` adds the step count that decides
``t0``.
"""

from __future__ import annotations

import numpy as np

from repro.optim.optimizer import Optimizer

__all__ = ["ASGD"]


class ASGD(Optimizer):
    """SGD with a Polyak tail average kept in the optimizer state."""
    def __init__(self, params, lr: float, t0: int = 0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        if t0 < 0:
            raise ValueError(f"t0 must be non-negative, got {t0}")
        self.t0 = t0
        self.weight_decay = weight_decay
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        super().step()

    def state_dict(self) -> dict:
        """The base state with the step count in every parameter's entry
        (as Adam keeps ``t``), so checkpoints and the trainer's worker
        pull-back carry it."""
        out = super().state_dict()
        for entry in out["state"].values():
            entry["step"] = self._step_count
        return out

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        steps = [int(entry.pop("step")) for entry in self.state.values() if "step" in entry]
        self._step_count = max(steps, default=0)

    def _update(self, p, grad):
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        new = p.data - self.lr * grad
        st = self._get_state(p)
        if self._step_count >= self.t0:
            if "ax" not in st:
                st["ax"] = new.copy()
                st["ax_count"] = 1
            else:
                st["ax_count"] = int(st["ax_count"]) + 1
                ax: np.ndarray = st["ax"]  # type: ignore[assignment]
                ax += (new - ax) / st["ax_count"]
        return new
