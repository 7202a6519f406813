"""Data substrate: vocab, loaders, micro-batch slicing, synthetic corpora."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    BOS,
    EOS,
    PAD,
    UNK,
    ArrayDataset,
    DataLoader,
    LMConfig,
    ParaphraseConfig,
    TranslationConfig,
    Vocab,
    batchify_lm,
    bleu_like,
    make_lm_corpus,
    make_paraphrase_dataset,
    make_translation_dataset,
)
from repro.data.dataset import split_microbatches


class TestVocab:
    def test_specials_reserved(self):
        v = Vocab()
        assert (v.token(PAD), v.token(BOS), v.token(EOS), v.token(UNK)) == (
            "<pad>", "<bos>", "<eos>", "<unk>",
        )

    def test_add_is_idempotent(self):
        v = Vocab()
        assert v.add("cat") == v.add("cat")
        assert len(v) == 5

    def test_unknown_maps_to_unk(self):
        assert Vocab().index("martian") == UNK

    def test_encode_decode_roundtrip(self):
        v = Vocab(["a", "b", "c"])
        ids = v.encode(["a", "c"], add_bos=True, add_eos=True)
        assert ids[0] == BOS and ids[-1] == EOS
        assert v.decode(ids) == ["a", "c"]


class TestArrayDatasetAndLoader:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(a=np.zeros(3), b=np.zeros(4))

    def test_loader_is_deterministic_per_seed(self):
        ds = ArrayDataset(x=np.arange(32))
        l1 = DataLoader(ds, batch_size=8, seed=5)
        l2 = DataLoader(ds, batch_size=8, seed=5)
        for b1, b2 in zip(l1, l2):
            assert np.array_equal(b1["x"], b2["x"])

    def test_loader_shuffles_across_epochs(self):
        ds = ArrayDataset(x=np.arange(32))
        loader = DataLoader(ds, batch_size=32, seed=5)
        first = next(iter(loader))["x"].copy()
        second = next(iter(loader))["x"].copy()
        assert not np.array_equal(first, second)
        assert np.array_equal(np.sort(first), np.sort(second))

    def test_drop_last(self):
        ds = ArrayDataset(x=np.arange(10))
        assert len(DataLoader(ds, batch_size=4)) == 2
        assert len(DataLoader(ds, batch_size=4, drop_last=False)) == 3

    def test_batch_too_large_rejected(self):
        with pytest.raises(ValueError):
            DataLoader(ArrayDataset(x=np.arange(3)), batch_size=8)


class TestSplitMicrobatches:
    def test_even_split(self):
        batch = {"x": np.arange(12), "y": np.arange(12) * 2}
        micros = split_microbatches(batch, 3)
        assert len(micros) == 3
        assert all(len(m["x"]) == 4 for m in micros)
        assert np.array_equal(np.concatenate([m["y"] for m in micros]), batch["y"])

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            split_microbatches({"x": np.arange(10)}, 3)

    def test_ragged_batch_rejected(self):
        with pytest.raises(ValueError):
            split_microbatches({"x": np.arange(4), "y": np.arange(6)}, 2)

    @settings(max_examples=25, deadline=None)
    @given(
        log_batch=st.integers(2, 6),
        log_micro=st.integers(0, 6),
    )
    def test_property_concat_inverts_split(self, log_batch, log_micro):
        if log_micro > log_batch:
            return
        batch_size, m = 2**log_batch, 2**log_micro
        batch = {"x": np.random.default_rng(0).integers(0, 9, size=(batch_size, 3))}
        micros = split_microbatches(batch, m)
        assert len(micros) == m
        assert np.array_equal(np.concatenate([mb["x"] for mb in micros]), batch["x"])


class TestTranslationCorpus:
    def test_target_is_deterministic_function_of_source(self):
        cfg = TranslationConfig(num_pairs=64, vocab_size=12, seq_len=6, seed=3)
        t1, _, _ = make_translation_dataset(cfg)
        t2, _, _ = make_translation_dataset(cfg)
        assert np.array_equal(t1.arrays["src"], t2.arrays["src"])
        assert np.array_equal(t1.arrays["tgt_out"], t2.arrays["tgt_out"])

    def test_framing_tokens(self):
        train, _, _ = make_translation_dataset(TranslationConfig(num_pairs=16, seq_len=5))
        src = train.arrays["src"]
        assert np.all(src[:, 0] == BOS)
        assert np.all(src[:, 6] == EOS)
        tgt_out = train.arrays["tgt_out"]
        assert np.all(tgt_out[:, 5] == EOS)

    def test_decoder_input_is_shifted_target(self):
        train, _, _ = make_translation_dataset(TranslationConfig(num_pairs=16, seq_len=5))
        tgt_in, tgt_out = train.arrays["tgt_in"], train.arrays["tgt_out"]
        assert np.all(tgt_in[:, 0] == BOS)
        assert np.array_equal(tgt_in[:, 1:6], tgt_out[:, 0:5])

    def test_mapping_is_a_bijection(self):
        """Every distinct source content token maps to a distinct target token."""
        cfg = TranslationConfig(num_pairs=512, vocab_size=10, seq_len=8, seed=1)
        train, _, _ = make_translation_dataset(cfg)
        src = train.arrays["src"][:, 1:9]
        # invert the adjacent swap to realign positions
        tgt = train.arrays["tgt_out"][:, 0:8].copy()
        swapped = tgt.copy()
        swapped[:, 0:8:2], swapped[:, 1:8:2] = tgt[:, 1:8:2], tgt[:, 0:8:2]
        pairs = set(zip(src.reshape(-1).tolist(), swapped.reshape(-1).tolist()))
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        assert len(set(sources)) == len(pairs)  # function
        assert len(set(targets)) == len(pairs)  # injective


class TestBleuLike:
    def test_perfect_match_scores_100(self):
        seqs = [[5, 6, 7, 8], [9, 10, 11]]
        assert bleu_like(seqs, seqs) == pytest.approx(100.0)

    def test_disjoint_tokens_score_near_zero(self):
        # Corpus-scale: smoothing must not mask a total mismatch.
        hyps = [[5, 6, 7, 5, 6] for _ in range(40)]
        refs = [[8, 9, 10, 11, 12] for _ in range(40)]
        assert bleu_like(hyps, refs) < 2.0

    def test_brevity_penalty(self):
        ref = [[5, 6, 7, 8, 9, 10]]
        short = [[5, 6, 7]]
        full = [[5, 6, 7, 8, 9, 10]]
        assert bleu_like(short, ref) < bleu_like(full, ref)

    def test_specials_stripped(self):
        assert bleu_like([[BOS, 5, 6, EOS]], [[5, 6]]) == pytest.approx(100.0)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            bleu_like([[1]], [[1], [2]])


class TestParaphraseCorpus:
    def test_label_range(self):
        cfg = ParaphraseConfig(num_pairs=128, num_topics=4, vocab_size=20)
        train, valid, _ = make_paraphrase_dataset(cfg)
        labels = np.concatenate([train.arrays["labels"], valid.arrays["labels"]])
        assert labels.min() >= 0 and labels.max() < 4

    def test_packing_layout(self):
        cfg = ParaphraseConfig(num_pairs=32, seq_len=5)
        train, _, vocab = make_paraphrase_dataset(cfg)
        tokens = train.arrays["tokens"]
        sep = vocab.index("<sep>")
        assert tokens.shape[1] == 13
        assert np.all(tokens[:, 0] == BOS)
        assert np.all(tokens[:, 6] == sep)
        assert np.all(tokens[:, 12] == EOS)

    def test_topic_signal_exists(self):
        """Sentences of the same topic share token blocks: a naive
        block-histogram classifier must beat chance by a wide margin."""
        cfg = ParaphraseConfig(num_pairs=512, num_topics=4, vocab_size=40, seq_len=8, seed=9)
        train, _, vocab = make_paraphrase_dataset(cfg)
        offset = vocab.index("<sep>") + 1
        block = cfg.vocab_size // cfg.num_topics
        tokens = train.arrays["tokens"][:, 1:9] - offset  # first sentence
        votes = np.zeros((len(tokens), cfg.num_topics))
        for t in range(cfg.num_topics):
            votes[:, t] = ((tokens >= t * block) & (tokens < (t + 1) * block)).sum(axis=1)
        acc = (votes.argmax(axis=1) == train.arrays["labels"]).mean()
        assert acc > 0.7

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_paraphrase_dataset(ParaphraseConfig(vocab_size=6, num_topics=6))


class TestLMCorpus:
    def test_tokens_in_range_and_deterministic(self):
        cfg = LMConfig(corpus_len=2000, vocab_size=10, seed=4)
        t1, v1, h1 = make_lm_corpus(cfg)
        t2, v2, h2 = make_lm_corpus(cfg)
        assert np.array_equal(t1, t2) and h1 == h2
        assert t1.min() >= 0 and t1.max() < 10

    def test_entropy_rate_below_uniform(self):
        cfg = LMConfig(corpus_len=2000, vocab_size=16, branching=3)
        _, _, entropy = make_lm_corpus(cfg)
        assert 0 < entropy < np.log(16)
        assert entropy <= np.log(3) + 1e-9  # at most log(branching)

    def test_batchify_targets_shifted_by_one(self):
        tokens = np.arange(100)
        batches = batchify_lm(tokens, batch_size=4, bptt=5)
        for batch in batches:
            assert np.array_equal(batch["input"] + 1, batch["target"])

    def test_batchify_rows_are_contiguous_streams(self):
        tokens = np.arange(101)
        batches = batchify_lm(tokens, batch_size=4, bptt=7)
        row0 = np.concatenate([b["input"][0] for b in batches])
        assert np.array_equal(row0, np.arange(len(row0)))

    def test_batchify_rejects_tiny_corpus(self):
        with pytest.raises(ValueError):
            batchify_lm(np.arange(3), batch_size=8, bptt=4)


class TestArrayDatasetSubset:
    def test_getitem_returns_row_dict(self):
        ds = ArrayDataset(x=np.arange(6).reshape(3, 2))
        row = ds[1]
        assert np.array_equal(row["x"], [2, 3])
