"""Model zoo: bundle flow, shapes, cost annotations, trainability signals."""

import time

import numpy as np
import pytest

from repro.graph import model_costs
from repro.models import (
    AWDConfig,
    BertConfig,
    GNMTConfig,
    PipelineModel,
    build_awd_lstm,
    build_bert,
    build_gnmt,
    build_workload,
)
from repro.models.registry import WORKLOADS
from repro.optim import Adam
from repro.tensor import no_grad


SMALL_GNMT = GNMTConfig(vocab_size=16, embed_dim=8, hidden_dim=12, encoder_layers=3,
                        decoder_layers=2, src_len=6, tgt_len=6, dropout=0.0)
SMALL_BERT = BertConfig(vocab_size=16, d_model=8, num_heads=2, num_blocks=3, d_ff=16,
                        seq_len=9, num_classes=3, dropout=0.0)
SMALL_AWD = AWDConfig(vocab_size=10, embed_dim=8, hidden_dim=12, num_layers=2, bptt=5,
                      dropout=0.0, weight_drop=0.0)


def _gnmt_batch(n=4):
    rng = np.random.default_rng(0)
    return {
        "src": rng.integers(4, 16, size=(n, 6)),
        "tgt_in": rng.integers(4, 16, size=(n, 6)),
        "tgt_out": rng.integers(4, 16, size=(n, 6)),
    }


def _bert_batch(n=4):
    rng = np.random.default_rng(1)
    return {"tokens": rng.integers(4, 16, size=(n, 9)), "labels": rng.integers(0, 3, size=n)}


def _awd_batch(n=4):
    rng = np.random.default_rng(2)
    return {"input": rng.integers(0, 10, size=(n, 5)), "target": rng.integers(0, 10, size=(n, 5))}


class TestBundleFlow:
    @pytest.mark.parametrize(
        "build,cfg,batch",
        [
            (build_gnmt, SMALL_GNMT, _gnmt_batch()),
            (build_bert, SMALL_BERT, _bert_batch()),
            (build_awd_lstm, SMALL_AWD, _awd_batch()),
        ],
        ids=["gnmt", "bert", "awd"],
    )
    def test_loss_is_finite_scalar_and_backprops(self, build, cfg, batch):
        model = build(cfg)
        loss = model.loss(batch)
        assert loss.data.size == 1
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_every_prefix_of_layers_is_a_valid_stage(self):
        """Stopping after any layer and resuming must reproduce the full
        forward — the property the pipeline runtime depends on."""
        model = build_gnmt(SMALL_GNMT)
        batch = _gnmt_batch()
        full = model.loss(batch).item()
        for cut in range(1, len(model.layers)):
            bundle = dict(batch)
            for layer in model.layers[:cut]:
                bundle = layer(bundle)
            for layer in model.layers[cut:]:
                bundle = layer(bundle)
            assert bundle["loss"].item() == pytest.approx(full, rel=1e-5)

    def test_bundles_do_not_leak_consumed_keys(self):
        model = build_bert(SMALL_BERT)
        bundle = model.forward(_bert_batch())
        assert "hidden" not in bundle
        assert "tokens" not in bundle
        assert set(bundle) >= {"logits", "loss", "labels"}


class TestCostAnnotations:
    @pytest.mark.parametrize(
        "model",
        [build_gnmt(SMALL_GNMT), build_bert(SMALL_BERT), build_awd_lstm(SMALL_AWD)],
        ids=["gnmt", "bert", "awd"],
    )
    def test_costs_positive(self, model):
        costs = model_costs(model)
        assert all(c.flops_per_sample >= 0 for c in costs)
        assert all(c.activation_bytes_per_sample > 0 for c in costs)
        assert sum(c.param_bytes for c in costs) == model.parameter_bytes()

    def test_analytic_ranking_matches_profiled_ranking(self):
        """The heaviest layers by analytic flops must be the slowest when
        actually executed (rank correlation, not exact timing)."""
        model = build_gnmt(GNMTConfig(vocab_size=32, encoder_layers=4, dropout=0.0))
        batch = {
            "src": np.random.default_rng(0).integers(4, 32, size=(16, 12)),
            "tgt_in": np.random.default_rng(1).integers(4, 32, size=(16, 12)),
            "tgt_out": np.random.default_rng(2).integers(4, 32, size=(16, 12)),
        }
        analytic = [c.flops_per_sample for c in model_costs(model)]
        profiled = []
        with no_grad():
            bundle = dict(batch)
            for layer in model.layers:
                start = time.perf_counter()
                for _ in range(8):
                    out = layer(dict(bundle))
                profiled.append(time.perf_counter() - start)
                bundle = out
        heavy_analytic = int(np.argmax(analytic))
        # The analytically-heaviest layer is among the top-3 measured
        # (wall-clock profiling is noisy on a loaded CI machine; what
        # matters is that the annotation identifies the heavy region).
        assert heavy_analytic in np.argsort(profiled)[-3:]


class TestWorkloadRegistry:
    def test_all_workloads_run_one_step(self):
        for name, spec in WORKLOADS.items():
            model = spec.build_model().seed(0)
            loader = spec.make_train_loader(8, 0)
            batch = next(iter(loader))
            model.zero_grad()
            loss = model.loss(batch)
            loss.backward()
            opt = spec.make_optimizer(model)
            opt.step()
            assert np.isfinite(loss.item()), name

    def test_evaluate_returns_finite_metric(self):
        for name, spec in WORKLOADS.items():
            metric = spec.evaluate(spec.build_model().seed(0))
            assert np.isfinite(metric), name

    def test_target_reached_direction(self):
        gnmt = build_workload("gnmt")
        assert gnmt.target_reached(gnmt.target + 1)
        assert not gnmt.target_reached(gnmt.target - 1)
        awd = build_workload("awd")
        assert awd.target_reached(awd.target - 0.1)
        assert not awd.target_reached(awd.target + 0.1)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            build_workload("resnet")


class TestPipelineModelPlumbing:
    def test_state_dict_roundtrip_preserves_loss(self):
        m1 = build_bert(SMALL_BERT).seed(3)
        m2 = build_bert(SMALL_BERT).seed(9)
        batch = _bert_batch()
        m2.load_state_dict(m1.state_dict())
        m1.eval(), m2.eval()
        assert m1.loss(batch).item() == pytest.approx(m2.loss(batch).item(), rel=1e-6)

    def test_seed_reproducibility_of_training_step(self):
        def run():
            model = build_awd_lstm(AWDConfig(dropout=0.3, weight_drop=0.3)).seed(11)
            opt = Adam(model.parameters(), lr=1e-3)
            batch = {
                "input": np.random.default_rng(5).integers(0, 28, size=(8, 12)),
                "target": np.random.default_rng(6).integers(0, 28, size=(8, 12)),
            }
            model.zero_grad()
            model.loss(batch).backward()
            opt.step()
            return model.state_dict()

        s1, s2 = run(), run()
        for k in s1:
            assert np.array_equal(s1[k], s2[k]), k

    def test_slice_layers_validation(self):
        model = build_bert(SMALL_BERT)
        with pytest.raises(IndexError):
            model.slice_layers(3, 2)
        assert len(model.slice_layers(0, 2)) == 2

    def test_invalid_metric_mode(self):
        with pytest.raises(ValueError):
            PipelineModel(layers=build_bert(SMALL_BERT).layers, metric_mode="sideways")
