"""BERT-style encoder classifier (paraphrase workload).

Embedding + positional encoding, a stack of transformer encoder blocks,
a [BOS]-token pooler and a 2-way classification head — the fine-tuning
configuration the paper uses on QQP.  Each transformer block is its own
:class:`PipelineLayer`, the natural cut granularity for the partitioner
(Megatron/PipeDream partition BERT at block boundaries too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.pipeline_model import ActivationBundle, PipelineLayer, PipelineModel
from repro.nn import Dropout, Embedding, Linear, PositionalEncoding, Tanh, TransformerEncoderLayer
from repro.tensor import Tensor, cross_entropy

__all__ = ["BertConfig", "build_bert"]


@dataclass(frozen=True)
class BertConfig:
    """Size parameters of the BERT-style classifier workload."""
    vocab_size: int = 64
    d_model: int = 32
    num_heads: int = 4
    num_blocks: int = 12  # two blocks per stage on the paper's 6 GPUs
    d_ff: int = 64
    seq_len: int = 19  # 2 * sentence_len + 3 packing from the dataset
    num_classes: int = 6  # pair-topic classes; see repro.data.synthetic_paraphrase
    dropout: float = 0.1


class BertEmbedding(PipelineLayer):
    """Token + positional embedding; bundle 'tokens' -> 'hidden'."""
    def __init__(self, cfg: BertConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size, cfg.d_model)
        self.pos = PositionalEncoding(cfg.d_model, max_len=max(cfg.seq_len, 16))
        self.drop = Dropout(cfg.dropout)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        out = dict(bundle)
        out["hidden"] = self.drop(self.pos(self.embed(bundle["tokens"])))  # (B, T, D)
        del out["tokens"]
        return out

    def flops_per_sample(self) -> float:
        return self.cfg.seq_len * self.cfg.d_model

    def activation_floats_per_sample(self) -> float:
        return self.cfg.seq_len * self.cfg.d_model + 1  # hidden + carried label


class BertBlock(PipelineLayer):
    """One pre-norm transformer encoder block over 'hidden'."""
    def __init__(self, cfg: BertConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.block = TransformerEncoderLayer(cfg.d_model, cfg.num_heads, cfg.d_ff, cfg.dropout)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        out = dict(bundle)
        out["hidden"] = self.block(bundle["hidden"])
        return out

    def flops_per_sample(self) -> float:
        cfg = self.cfg
        attn = 4 * cfg.seq_len * cfg.d_model * cfg.d_model + 2 * cfg.seq_len * cfg.seq_len * cfg.d_model
        mlp = 2 * cfg.seq_len * cfg.d_model * cfg.d_ff
        return attn + mlp

    def activation_floats_per_sample(self) -> float:
        return self.cfg.seq_len * self.cfg.d_model + 1


class BertClassifierHead(PipelineLayer):
    """Pool the first token, project to classes, compute the loss."""

    def __init__(self, cfg: BertConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.pooler = Linear(cfg.d_model, cfg.d_model)
        self.act = Tanh()
        self.classifier = Linear(cfg.d_model, cfg.num_classes)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        hidden = bundle["hidden"]  # (B, T, D)
        pooled = self.act(self.pooler(hidden[..., 0, :]))
        logits = self.classifier(pooled)  # (B, C)
        labels = np.asarray(bundle["labels"]).reshape(-1)
        out = dict(bundle)
        out["logits"] = logits
        out["loss"] = cross_entropy(logits, labels)
        del out["hidden"]
        return out

    def flops_per_sample(self) -> float:
        cfg = self.cfg
        return cfg.d_model * cfg.d_model + cfg.d_model * cfg.num_classes

    def activation_floats_per_sample(self) -> float:
        return self.cfg.num_classes + 1.0


def build_bert(cfg: BertConfig | None = None) -> PipelineModel:
    """Assemble the BERT pipeline: embedding, blocks, classifier head."""
    cfg = cfg or BertConfig()
    layers: list[PipelineLayer] = [BertEmbedding(cfg)]
    layers += [BertBlock(cfg) for _ in range(cfg.num_blocks)]
    layers.append(BertClassifierHead(cfg))
    return PipelineModel(layers=layers, name="bert", metric_mode="max")
