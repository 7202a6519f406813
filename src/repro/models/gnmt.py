"""GNMT-style sequence-to-sequence model (translation workload).

A scaled-down Google-NMT: embedding -> stacked encoder LSTMs -> decoder
LSTM with Luong dot attention over encoder states -> projection -> token
cross-entropy.  Expressed as :class:`PipelineLayer` stages so the
partitioner can cut it; the paper partitions GNMT over 6 GPUs.

Bundle keys
-----------
input:   ``src`` (B, S) int, ``tgt_in`` (B, T) int, ``tgt_out`` (B, T) int
flow:    ``src_emb`` -> ``enc_out`` -> (+``tgt_emb``) -> ``dec_out`` ->
         ``logits`` -> ``loss``
``tgt_in``/``tgt_out`` are carried through the encoder stages (cheap:
integer rows), exactly like PipeDream ships labels to the last stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.vocab import PAD
from repro.models.pipeline_model import ActivationBundle, PipelineLayer, PipelineModel
from repro.nn import Dropout, Embedding, Linear, LSTMCell
from repro.tensor import Tensor, cross_entropy, lstm_sequence, softmax, stack, tanh

__all__ = ["GNMTConfig", "build_gnmt"]


@dataclass(frozen=True)
class GNMTConfig:
    """Size parameters of the GNMT-style translation workload."""
    vocab_size: int = 64
    embed_dim: int = 32
    hidden_dim: int = 48
    # Depth mirrors real GNMT's stacked-residual design and, with two
    # layers per stage, lets the partitioner balance the paper's 6 GPUs.
    encoder_layers: int = 10
    decoder_layers: int = 2
    src_len: int = 12
    tgt_len: int = 12
    dropout: float = 0.1


class SourceEmbedding(PipelineLayer):
    """Source token embedding; bundle 'src' -> 'src_emb'."""
    def __init__(self, cfg: GNMTConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size, cfg.embed_dim, padding_idx=PAD)
        self.drop = Dropout(cfg.dropout)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        out = dict(bundle)
        out["src_emb"] = self.drop(self.embed(bundle["src"]))  # (B, S, E)
        del out["src"]
        return out

    def flops_per_sample(self) -> float:
        return self.cfg.src_len * self.cfg.embed_dim

    def activation_floats_per_sample(self) -> float:
        cfg = self.cfg
        return cfg.src_len * cfg.embed_dim + 2 * cfg.tgt_len  # emb + carried targets


class EncoderLSTMLayer(PipelineLayer):
    """One encoder LSTM layer with a residual connection (as in real GNMT,
    which adds residuals from the third layer up to keep deep stacks
    trainable); reads the previous layer's sequence output."""

    def __init__(self, cfg: GNMTConfig, layer_index: int) -> None:
        super().__init__()
        self.cfg = cfg
        self.layer_index = layer_index
        in_dim = cfg.embed_dim if layer_index == 0 else cfg.hidden_dim
        self.cell = LSTMCell(in_dim, cfg.hidden_dim)
        self.in_dim = in_dim
        self.in_key = "src_emb" if layer_index == 0 else "enc_out"
        self.residual = layer_index >= 1  # in/out dims match from layer 1

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        x = bundle[self.in_key]  # (B, S, D)
        cell = self.cell
        seq = lstm_sequence(  # (B, S, H)
            x, cell.weight_ih, cell.weight_hh, cell.bias, cell.hidden_size
        )
        out = dict(bundle)
        out["enc_out"] = seq + x if self.residual else seq
        out.pop("src_emb", None)
        return out

    def flops_per_sample(self) -> float:
        cfg = self.cfg
        return cfg.src_len * 4 * cfg.hidden_dim * (self.in_dim + cfg.hidden_dim)

    def activation_floats_per_sample(self) -> float:
        cfg = self.cfg
        return cfg.src_len * cfg.hidden_dim + 2 * cfg.tgt_len


class DecoderWithAttention(PipelineLayer):
    """One teacher-forced LSTM decoder layer with Luong dot attention.

    Layer 0 embeds ``tgt_in``; deeper layers consume the previous decoder
    layer's ``dec_out`` with a residual connection.  Every layer carries
    ``enc_out`` until the last decoder layer releases it.
    """

    def __init__(self, cfg: GNMTConfig, layer_index: int = 0) -> None:
        super().__init__()
        self.cfg = cfg
        self.layer_index = layer_index
        self.is_first = layer_index == 0
        self.is_last = layer_index == cfg.decoder_layers - 1
        if self.is_first:
            self.embed = Embedding(cfg.vocab_size, cfg.embed_dim, padding_idx=PAD)
            in_dim = cfg.embed_dim
        else:
            self.embed = None
            in_dim = cfg.hidden_dim
        self.in_dim = in_dim
        self.cell = LSTMCell(in_dim, cfg.hidden_dim)
        self.attn_combine = Linear(2 * cfg.hidden_dim, cfg.hidden_dim)
        self.drop = Dropout(cfg.dropout)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        enc_out = bundle["enc_out"]  # (B, S, H)
        if self.is_first:
            x = self.drop(self.embed(bundle["tgt_in"]))  # (B, T, E)
        else:
            x = bundle["dec_out"]  # (B, T, H)
        # Axes count from the end: under micro_stack the bundle is a
        # (G, B, ...) stack.
        h, c = self.cell.init_state(*x.shape[:-2])
        outs = []
        n = enc_out.ndim
        enc_t = enc_out.transpose(*range(n - 2), n - 1, n - 2)  # (B, H, S)
        for t in range(x.shape[-2]):
            h, c = self.cell(x[..., t, :], (h, c))
            scores = (h.unsqueeze(-2) @ enc_t).squeeze(-2)  # (B, S)
            weights = softmax(scores, axis=-1)
            ctx = (weights.unsqueeze(-2) @ enc_out).squeeze(-2)  # (B, H)
            combined = tanh(self.attn_combine(_cat2(h, ctx)))
            outs.append(combined)
        seq = stack(outs, axis=-2)  # (B, T, H)
        out = dict(bundle)
        out["dec_out"] = seq + x if not self.is_first else seq
        if self.is_first:
            del out["tgt_in"]
        if self.is_last:
            del out["enc_out"]
        return out

    def flops_per_sample(self) -> float:
        cfg = self.cfg
        lstm = cfg.tgt_len * 4 * cfg.hidden_dim * (self.in_dim + cfg.hidden_dim)
        attn = cfg.tgt_len * (2 * cfg.src_len * cfg.hidden_dim + 2 * cfg.hidden_dim * cfg.hidden_dim)
        return lstm + attn

    def activation_floats_per_sample(self) -> float:
        cfg = self.cfg
        carried = 0.0 if self.is_last else cfg.src_len * cfg.hidden_dim
        return cfg.tgt_len * cfg.hidden_dim + cfg.tgt_len + carried


class OutputProjection(PipelineLayer):
    """Hidden-to-vocabulary projection; 'dec_out' -> 'logits'."""
    def __init__(self, cfg: GNMTConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.proj = Linear(cfg.hidden_dim, cfg.vocab_size)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        out = dict(bundle)
        out["logits"] = self.proj(bundle["dec_out"])  # (B, T, V)
        del out["dec_out"]
        return out

    def flops_per_sample(self) -> float:
        cfg = self.cfg
        return cfg.tgt_len * cfg.hidden_dim * cfg.vocab_size

    def activation_floats_per_sample(self) -> float:
        cfg = self.cfg
        return cfg.tgt_len * cfg.vocab_size + cfg.tgt_len


class TokenLossHead(PipelineLayer):
    """Padding-masked token cross-entropy over (B, T, V) logits."""

    def __init__(self, cfg: GNMTConfig) -> None:
        super().__init__()
        self.cfg = cfg

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        logits = bundle["logits"]
        targets = np.asarray(bundle["tgt_out"]).reshape(-1)
        flat = logits.reshape(-1, logits.shape[-1])
        out = dict(bundle)
        out["loss"] = cross_entropy(flat, targets, ignore_index=PAD)
        return out

    def flops_per_sample(self) -> float:
        return self.cfg.tgt_len * self.cfg.vocab_size

    def activation_floats_per_sample(self) -> float:
        return 1.0


def _cat2(a: Tensor, b: Tensor) -> Tensor:
    from repro.tensor import cat

    return cat([a, b], axis=-1)


def build_gnmt(cfg: GNMTConfig | None = None) -> PipelineModel:
    """Assemble the GNMT pipeline: embed, encoders, decoders, proj, loss."""
    cfg = cfg or GNMTConfig()
    layers: list[PipelineLayer] = [SourceEmbedding(cfg)]
    layers += [EncoderLSTMLayer(cfg, i) for i in range(cfg.encoder_layers)]
    layers += [DecoderWithAttention(cfg, i) for i in range(cfg.decoder_layers)]
    layers += [OutputProjection(cfg), TokenLossHead(cfg)]
    return PipelineModel(layers=layers, name="gnmt", metric_mode="max")
