"""Synthetic translation corpus (WMT16 stand-in for the GNMT workload).

The "language pair" is a deterministic transduction: source sentences are
drawn from a seeded unigram-with-locality process, and the target applies
(1) a token-wise bijective mapping ("dictionary translation"), and
(2) a local swap of each adjacent token pair ("reordering"), so the model
must learn both lexical mapping and ordering — enough structure that
attention helps and that statistical-efficiency differences (staleness,
averaging, batch size) move the epochs-to-target metric, which is what
Figure 14 compares.

Quality metric: :func:`bleu_like`, a corpus-level geometric mean of 1- and
2-gram precision with brevity penalty — the same shape as BLEU without the
reference-set machinery.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.vocab import BOS, EOS, PAD, Vocab
from repro.utils.seeding import derive_rng

__all__ = ["TranslationConfig", "make_translation_dataset", "bleu_like"]


@dataclass(frozen=True)
class TranslationConfig:
    """Corpus shape parameters.

    ``vocab_size`` counts content tokens (specials are added on top).
    Sequences are fixed-length plus BOS/EOS then padded, which keeps the
    pipeline micro-batches uniform.
    """

    num_pairs: int = 2048
    vocab_size: int = 32
    seq_len: int = 10
    seed: int = 1234


def _token_mapping(vocab_size: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded bijection over content-token ids (the 'dictionary')."""
    return rng.permutation(vocab_size)


def make_translation_dataset(config: TranslationConfig) -> tuple[ArrayDataset, ArrayDataset, Vocab]:
    """Build (train, validation) datasets plus the shared vocabulary.

    Arrays:
      ``src``       (N, L+2) int64 — BOS ... EOS
      ``tgt_in``    (N, L+2) int64 — BOS-shifted decoder input
      ``tgt_out``   (N, L+2) int64 — decoder target, PAD-masked
    """
    if config.vocab_size < 4:
        raise ValueError("vocab_size must be at least 4")
    rng = derive_rng("synthetic-translation", seed=config.seed)
    vocab = Vocab(f"w{i}" for i in range(config.vocab_size))
    offset = 4  # specials
    mapping = _token_mapping(config.vocab_size, rng)

    n = config.num_pairs
    length = config.seq_len
    # Source process: first token uniform, subsequent tokens biased toward
    # staying in a local window, giving n-gram structure worth modelling.
    src_content = np.empty((n, length), dtype=np.int64)
    src_content[:, 0] = rng.integers(0, config.vocab_size, size=n)
    for t in range(1, length):
        step = rng.integers(-3, 4, size=n)
        jump = rng.random(n) < 0.15
        src_content[:, t] = np.where(
            jump,
            rng.integers(0, config.vocab_size, size=n),
            (src_content[:, t - 1] + step) % config.vocab_size,
        )
    tgt_content = mapping[_reorder_rows(src_content)]

    total = length + 2
    src = np.full((n, total), PAD, dtype=np.int64)
    tgt_in = np.full((n, total), PAD, dtype=np.int64)
    tgt_out = np.full((n, total), PAD, dtype=np.int64)
    src[:, 0] = BOS
    src[:, 1 : 1 + length] = src_content + offset
    src[:, 1 + length] = EOS
    tgt_in[:, 0] = BOS
    tgt_in[:, 1 : 1 + length] = tgt_content + offset
    tgt_out[:, :length] = tgt_content + offset
    tgt_out[:, length] = EOS

    split = max(1, int(n * 0.9))
    train = ArrayDataset(src=src[:split], tgt_in=tgt_in[:split], tgt_out=tgt_out[:split])
    valid = ArrayDataset(src=src[split:], tgt_in=tgt_in[split:], tgt_out=tgt_out[split:])
    return train, valid, vocab


def _reorder_rows(tokens: np.ndarray) -> np.ndarray:
    """Swap adjacent columns per row: [a b c d e] -> [b a d c e]."""
    out = tokens.copy()
    limit = (tokens.shape[1] // 2) * 2
    out[:, 0:limit:2], out[:, 1:limit:2] = tokens[:, 1:limit:2], tokens[:, 0:limit:2]
    return out


def _ngram_counts(seq: list[int], n: int) -> Counter:
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def bleu_like(hypotheses: list[list[int]], references: list[list[int]], max_n: int = 2) -> float:
    """Corpus-level BLEU-style score in [0, 100].

    Geometric mean of clipped n-gram precisions (n = 1..max_n) with the
    standard brevity penalty.  Token ids <= EOS (specials) are stripped.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference count mismatch")
    hyp_len = ref_len = 0
    matches = [0] * max_n
    totals = [0] * max_n
    for hyp, ref in zip(hypotheses, references):
        hyp = [t for t in hyp if t > EOS]
        ref = [t for t in ref if t > EOS]
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            h_counts = _ngram_counts(hyp, n)
            r_counts = _ngram_counts(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(min(c, r_counts[g]) for g, c in h_counts.items())
    if hyp_len == 0 or any(t == 0 for t in totals):
        return 0.0
    precisions = [(m if m > 0 else 0.5) / t for m, t in zip(matches, totals)]
    log_p = sum(math.log(p) for p in precisions) / max_n
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p)
