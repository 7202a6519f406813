"""Scaled-dot-product multi-head attention (BERT / GNMT-decoder kernel)."""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor import Tensor, micro_count
from repro.tensor.functional import scaled_dot_attention

__all__ = ["MultiHeadAttention"]


class MultiHeadAttention(Module):
    """Multi-head attention over (B, T, D) inputs, or (G, B, T, D) stacks
    under ``micro_stack(G)``.

    ``forward(query, key, value, mask)`` with an optional additive mask of
    shape broadcastable to (B, heads, Tq, Tk); masked positions should be
    a large negative number (we use -1e9 internally for boolean masks).
    """

    def __init__(self, d_model: int, num_heads: int, attn_dropout: float = 0.0) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.attn_dropout = attn_dropout
        self.q_proj = Linear(d_model, d_model)
        self.k_proj = Linear(d_model, d_model)
        self.v_proj = Linear(d_model, d_model)
        self.out_proj = Linear(d_model, d_model)

    @staticmethod
    def _swap_heads(x: Tensor) -> Tensor:
        """(..., T, H, dh) <-> (..., H, T, dh)."""
        n = x.ndim
        return x.transpose(*range(n - 3), n - 2, n - 3, n - 1)

    def _split_heads(self, x: Tensor) -> Tensor:
        return self._swap_heads(x.reshape(*x.shape[:-1], self.num_heads, self.d_head))

    def forward(
        self,
        query: Tensor,
        key: Tensor | None = None,
        value: Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        key = query if key is None else key
        value = key if value is None else value
        if query.ndim != 3 + bool(micro_count()):
            raise ValueError(f"attention expects (B, T, D) per micro-batch, got {query.shape}")

        q = self._split_heads(self.q_proj(query))  # (B, H, Tq, dh)
        k = self._split_heads(self.k_proj(key))
        v = self._split_heads(self.v_proj(value))

        bias = None
        if mask is not None:
            mask = np.asarray(mask)
            if mask.dtype == bool:
                bias = np.where(mask, 0.0, -1e9).astype(q.dtype)
            else:
                bias = mask.astype(q.dtype)
        ctx = scaled_dot_attention(
            q, k, v,
            scale=1.0 / np.sqrt(self.d_head),
            bias=bias,
            dropout_p=self.attn_dropout,
            rng=self._rng,
            training=self.training,
        )  # (B, H, Tq, dh)
        ctx = self._swap_heads(ctx)
        return self.out_proj(ctx.reshape(*ctx.shape[:-2], self.d_model))

    def __repr__(self) -> str:
        return f"MultiHeadAttention(d_model={self.d_model}, heads={self.num_heads})"
