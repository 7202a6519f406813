"""Greedy decoding for GNMT."""

import numpy as np
import pytest

from repro.data import TranslationConfig, bleu_like, make_translation_dataset
from repro.data.vocab import EOS, PAD
from repro.models import build_bert, BertConfig
from repro.models.gnmt import GNMTConfig, build_gnmt
from repro.models.inference import greedy_decode
from repro.optim import Adam

CFG = GNMTConfig(vocab_size=16, embed_dim=8, hidden_dim=12, encoder_layers=2,
                 decoder_layers=2, src_len=7, tgt_len=7, dropout=0.0)


def small_data():
    dcfg = TranslationConfig(num_pairs=256, vocab_size=12, seq_len=5, seed=4)
    train, valid, _ = make_translation_dataset(dcfg)
    return train, valid


class TestGreedyDecode:
    def test_output_shape_and_token_range(self):
        model = build_gnmt(CFG)
        src = np.random.default_rng(0).integers(4, 16, size=(3, 7))
        out = greedy_decode(model, src, max_len=7)
        assert out.shape[0] == 3
        assert out.shape[1] <= 7
        assert out.min() >= 0 and out.max() < CFG.vocab_size

    def test_tokens_after_eos_are_padding(self):
        model = build_gnmt(CFG)
        src = np.random.default_rng(1).integers(4, 16, size=(4, 7))
        out = greedy_decode(model, src, max_len=7)
        for row in out:
            hits = np.where(row == EOS)[0]
            if len(hits):
                assert np.all(row[hits[0] + 1:] == PAD)

    def test_deterministic(self):
        model = build_gnmt(CFG)
        src = np.random.default_rng(2).integers(4, 16, size=(2, 7))
        a = greedy_decode(model, src)
        b = greedy_decode(model, src)
        assert np.array_equal(a, b)

    def test_rejects_non_gnmt_models(self):
        bert = build_bert(BertConfig(vocab_size=16, d_model=8, num_heads=2, num_blocks=2,
                                     d_ff=16, seq_len=9, num_classes=2))
        with pytest.raises(TypeError):
            greedy_decode(bert, np.zeros((1, 9), dtype=np.int64))

    def test_bleu_improves_with_training(self):
        """The deployment metric must track training progress."""
        train, valid = small_data()
        model = build_gnmt(CFG).seed(3)
        src = valid.arrays["src"]
        refs = [
            [int(t) for t in row[: int(np.where(row == EOS)[0][0]) if len(np.where(row == EOS)[0]) else len(row)]]
            for row in valid.arrays["tgt_out"]
        ]

        def score():
            hyps = [list(map(int, row)) for row in greedy_decode(model, src, max_len=7)]
            return bleu_like(hyps, refs)

        before = score()
        opt = Adam(model.parameters(), lr=3e-3)
        for _ in range(40):
            idx = np.random.default_rng(5).choice(len(train), 64, replace=False)
            batch = {k: v[idx] for k, v in train.arrays.items()}
            model.zero_grad()
            model.loss(batch).backward()
            opt.step()
        after = score()
        assert after > before + 1.0
