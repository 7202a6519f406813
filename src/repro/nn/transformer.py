"""Transformer encoder layer and sinusoidal positional encoding (BERT body)."""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.normalization import LayerNorm
from repro.tensor import Tensor, gelu

__all__ = ["TransformerEncoderLayer", "PositionalEncoding"]


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: LN -> MHA -> +residual, LN -> MLP -> +residual.

    Pre-norm keeps gradients healthy at depth without LR warmup (post-norm
    stacks deeper than ~2 blocks plateau under plain Adam), which matters
    here because statistical-efficiency experiments compare epoch counts
    and must not be confounded by optimization pathologies.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int | None = None,
        dropout_p: float = 0.1,
    ) -> None:
        super().__init__()
        d_ff = d_ff if d_ff is not None else 4 * d_model
        self.attn = MultiHeadAttention(d_model, num_heads, attn_dropout=dropout_p)
        self.norm1 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff)
        self.ff2 = Linear(d_ff, d_model)
        self.norm2 = LayerNorm(d_model)
        self.drop = Dropout(dropout_p)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        # ``drop`` serves two sites; both samples are drawn up front, in
        # the order an unstacked forward per micro-batch would draw them.
        u_attn, u_ff = self.drop.uniforms(x.shape, 2)
        attn_out = self.attn(self.norm1(x), mask=mask)
        x = x + self.drop(attn_out, u_attn)
        ff_out = self.ff2(gelu(self.ff1(self.norm2(x))))
        return x + self.drop(ff_out, u_ff)


class PositionalEncoding(Module):
    """Adds fixed sinusoidal position embeddings to a (B, T, D) input."""

    def __init__(self, d_model: int, max_len: int = 512) -> None:
        super().__init__()
        position = np.arange(max_len)[:, None].astype(np.float64)
        div = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model))
        table = np.zeros((max_len, d_model), dtype=np.float32)
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div[: d_model // 2])
        self.table = table  # constant buffer, not a Parameter
        self.max_len = max_len

    def forward(self, x: Tensor) -> Tensor:
        t = x.shape[-2]
        if t > self.max_len:
            raise ValueError(f"sequence length {t} exceeds positional table {self.max_len}")
        return x + Tensor(self.table[:t])
