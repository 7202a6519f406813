"""Optimizer base class.

Matches the slice of the ``torch.optim`` contract the runtimes need:
``step()`` applies updates from accumulated ``.grad``s, ``zero_grad()``
clears them, and per-parameter state lives in ``self.state`` keyed by
parameter identity.  ``state_dict`` deep-copies state so pipeline
runtimes can checkpoint optimizers alongside weights.

:meth:`Optimizer.step` is the one loop that writes parameter data; a
subclass supplies only its per-parameter rule, :meth:`Optimizer._update`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Base optimizer: step()/zero_grad()/state_dict over Parameters."""
    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.state: dict[int, dict[str, np.ndarray | int | float]] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data = self._update(p, p.grad)

    def _update(self, p: Parameter, grad: np.ndarray) -> np.ndarray:
        """The new data of ``p`` after one step on ``grad``."""
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Global-norm gradient clipping; returns the pre-clip norm."""
        sq = 0.0
        for p in self.params:
            if p.grad is not None:
                sq += float((p.grad.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(sq))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad = p.grad * scale
        return norm

    def state_dict(self) -> dict:
        out: dict = {"lr": self.lr, "state": {}}
        for i, p in enumerate(self.params):
            entry = self.state.get(id(p))
            if entry is not None:
                out["state"][i] = {
                    k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in entry.items()
                }
        return out

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.state.clear()
        for i, entry in state["state"].items():
            p = self.params[int(i)]
            self.state[id(p)] = {
                k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in entry.items()
            }

    def _get_state(self, p: Parameter) -> dict:
        entry = self.state.get(id(p))
        if entry is None:
            entry = {}
            self.state[id(p)] = entry
        return entry
