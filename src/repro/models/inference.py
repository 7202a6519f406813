"""Autoregressive inference for the GNMT workload.

Training and the registry's quality metric use teacher forcing (cheap,
stable for epochs-to-target comparisons).  This module provides the real
deployment path: greedy decoding, where the decoder consumes its *own*
previous outputs — the paper's BLEU targets are measured this way on
WMT14.  The decode re-runs the decoder stack over the grown prefix each
step (O(T^2) in sequence length; fine at the miniature's T<=12 and free
of incremental-state plumbing).
"""

from __future__ import annotations

import numpy as np

from repro.data.vocab import BOS, EOS, PAD
from repro.models.gnmt import DecoderWithAttention, EncoderLSTMLayer, OutputProjection, SourceEmbedding
from repro.models.pipeline_model import PipelineModel
from repro.tensor import no_grad

__all__ = ["greedy_decode"]


def _split_layers(model: PipelineModel):
    encoder, decoders, projection = [], [], None
    for layer in model.layers:
        if isinstance(layer, (SourceEmbedding, EncoderLSTMLayer)):
            encoder.append(layer)
        elif isinstance(layer, DecoderWithAttention):
            decoders.append(layer)
        elif isinstance(layer, OutputProjection):
            projection = layer
    if not encoder or not decoders or projection is None:
        raise TypeError("greedy_decode expects a GNMT-style PipelineModel")
    return encoder, decoders, projection


def greedy_decode(model: PipelineModel, src: np.ndarray, max_len: int | None = None) -> np.ndarray:
    """Greedy translation of ``src`` (B, S) int tokens.

    Returns (B, T) generated tokens (without BOS, padded with PAD after
    each sequence's EOS).
    """
    encoder, decoders, projection = _split_layers(model)
    src = np.asarray(src)
    if src.ndim != 2:
        raise ValueError(f"src must be (B, S), got shape {src.shape}")
    batch, _ = src.shape
    max_len = max_len or src.shape[1]

    model.eval()
    with no_grad():
        bundle: dict = {"src": src, "tgt_in": None, "tgt_out": None}
        for layer in encoder:
            bundle = layer(bundle)
        enc_out = bundle["enc_out"]

        prefix = np.full((batch, 1), BOS, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        outputs = []
        for _ in range(max_len):
            dec_bundle: dict = {"enc_out": enc_out, "tgt_in": prefix}
            for layer in decoders:
                dec_bundle = layer(dec_bundle)
            logits = projection(dec_bundle)["logits"]
            next_token = logits.data[:, -1, :].argmax(axis=-1).astype(np.int64)
            next_token[finished] = PAD
            outputs.append(next_token)
            finished |= next_token == EOS
            prefix = np.concatenate([prefix, next_token[:, None]], axis=1)
            if finished.all():
                break
    model.train()
    return np.stack(outputs, axis=1)
