"""Module/Parameter base classes.

The interesting parts relative to a toy implementation:

* ``state_dict`` / ``load_state_dict`` copy raw ndarrays: their callers
  (the elastic reference, checkpoints) keep snapshots past later
  updates, so they must never alias live parameters.
* Each module owns a ``repro`` RNG handle (seeded via
  :mod:`repro.utils.seeding`) so dropout masks are reproducible per
  pipeline replica — pipelines with different seeds must diverge, replicas
  of the same pipeline must not.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.tensor import Tensor
from repro.utils.seeding import derive_rng

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A Tensor registered as a trainable weight of a Module."""

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(np.asarray(data), requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, dtype={self.dtype})"


class Module:
    """Base class with parameter registration and traversal."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_rng", derive_rng(type(self).__name__))

    # ------------------------------------------------------------------ #
    # attribute plumbing

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # traversal

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def parameter_bytes(self) -> int:
        return sum(p.data.nbytes for p in self.parameters())

    # ------------------------------------------------------------------ #
    # train / eval and gradient management

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def seed(self, seed: int) -> "Module":
        """Re-seed every submodule RNG; used to give pipeline replicas
        identical (or deliberately distinct) dropout streams."""
        for i, module in enumerate(self.modules()):
            object.__setattr__(module, "_rng", derive_rng(type(module).__name__, i, seed=seed))
        return self

    # ------------------------------------------------------------------ #
    # state dict

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Deep-copied mapping of parameter name -> ndarray."""
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = params[name]
            value = np.asarray(value, dtype=param.dtype)
            if value.shape != param.shape:
                raise ValueError(f"{name}: shape {value.shape} != parameter {param.shape}")
            param.data = value.copy()

    # ------------------------------------------------------------------ #
    # call protocol

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [f"  ({n}): {m!r}" for n, m in self._modules.items()]
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"
