"""AWD-LSTM language model [Merity et al. 2018] (LM workload).

Embedding with dropout, weight-dropped LSTM layers, and a tied-weight
decoder would be the full recipe; we keep embedding dropout, WeightDrop on
the recurrent matrices, and an untied decoder (tying complicates pipeline
cuts and is orthogonal to the paper's claims).  The paper notes AWD is
small — trained on 4 GPUs with a micro-batch number of one — which is the
regime where AvgPipe's tuner picks maximum micro-batch *size*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.pipeline_model import ActivationBundle, PipelineLayer, PipelineModel
from repro.nn import Dropout, Embedding, Linear, LSTMCell, WeightDrop
from repro.tensor import cross_entropy, lstm_sequence

__all__ = ["AWDConfig", "build_awd_lstm"]


@dataclass(frozen=True)
class AWDConfig:
    """Size/regularization parameters of the AWD-LSTM workload."""
    vocab_size: int = 28
    embed_dim: int = 24
    hidden_dim: int = 32
    num_layers: int = 2
    bptt: int = 12
    dropout: float = 0.1
    weight_drop: float = 0.2


class LMEmbedding(PipelineLayer):
    """Token embedding + dropout; bundle 'input' -> 'hidden'."""
    def __init__(self, cfg: AWDConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size, cfg.embed_dim)
        self.drop = Dropout(cfg.dropout)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        out = dict(bundle)
        out["hidden"] = self.drop(self.embed(bundle["input"]))  # (B, T, E)
        del out["input"]
        return out

    def flops_per_sample(self) -> float:
        return self.cfg.bptt * self.cfg.embed_dim

    def activation_floats_per_sample(self) -> float:
        return self.cfg.bptt * self.cfg.embed_dim + self.cfg.bptt


class WeightDroppedLSTMLayer(PipelineLayer):
    """LSTM layer with DropConnect on its recurrent weights: one
    ``lstm_sequence`` node per layer, one mask per time step."""
    def __init__(self, cfg: AWDConfig, layer_index: int) -> None:
        super().__init__()
        self.cfg = cfg
        in_dim = cfg.embed_dim if layer_index == 0 else cfg.hidden_dim
        self.in_dim = in_dim
        cell = LSTMCell(in_dim, cfg.hidden_dim)
        self.wrapped = WeightDrop(cell, "weight_hh", p=cfg.weight_drop)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        x = bundle["hidden"]  # (B, T, D)
        cell: LSTMCell = self.wrapped.inner  # type: ignore[assignment]
        out = dict(bundle)
        out["hidden"] = lstm_sequence(
            x, cell.weight_ih, cell.weight_hh, cell.bias, cell.hidden_size,
            hh_masked=self.wrapped.masked(x.shape[-2]),
        )
        return out

    def flops_per_sample(self) -> float:
        cfg = self.cfg
        return cfg.bptt * 4 * cfg.hidden_dim * (self.in_dim + cfg.hidden_dim)

    def activation_floats_per_sample(self) -> float:
        return self.cfg.bptt * self.cfg.hidden_dim + self.cfg.bptt


class LMHead(PipelineLayer):
    """Vocabulary projection + token cross-entropy loss head."""
    def __init__(self, cfg: AWDConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.decoder = Linear(cfg.hidden_dim, cfg.vocab_size)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        logits = self.decoder(bundle["hidden"])  # (B, T, V)
        targets = np.asarray(bundle["target"]).reshape(-1)
        out = dict(bundle)
        out["logits"] = logits
        out["loss"] = cross_entropy(logits.reshape(-1, logits.shape[-1]), targets)
        del out["hidden"]
        return out

    def flops_per_sample(self) -> float:
        return self.cfg.bptt * self.cfg.hidden_dim * self.cfg.vocab_size

    def activation_floats_per_sample(self) -> float:
        return 1.0


def build_awd_lstm(cfg: AWDConfig | None = None) -> PipelineModel:
    """Assemble the AWD-LSTM pipeline: embed, LSTM stack, LM head."""
    cfg = cfg or AWDConfig()
    layers: list[PipelineLayer] = [LMEmbedding(cfg)]
    layers += [WeightDroppedLSTMLayer(cfg, i) for i in range(cfg.num_layers)]
    layers.append(LMHead(cfg))
    return PipelineModel(layers=layers, name="awd", metric_mode="min")
