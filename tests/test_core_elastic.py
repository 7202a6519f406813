"""Elastic-averaging framework (§3.2) invariants."""

import numpy as np
import pytest

from repro.core import ElasticAveragingFramework, MessageQueue
from repro.models import BertConfig, build_bert
from repro.optim import SGD, Adam

CFG = BertConfig(vocab_size=16, d_model=8, num_heads=2, num_blocks=2, d_ff=16,
                 seq_len=9, num_classes=3, dropout=0.0)


def make_models(n, seed=0):
    models = [build_bert(CFG).seed(seed) for _ in range(n)]
    base = models[0].state_dict()
    for m in models[1:]:
        m.load_state_dict(base)
    return models


def batch(seed=0):
    rng = np.random.default_rng(seed)
    return {"tokens": rng.integers(4, 16, size=(4, 9)), "labels": rng.integers(0, 3, size=4)}


class TestMessageQueue:
    def test_sync_queue_visible_same_tick(self):
        q = MessageQueue(delay=0)
        q.put("a")
        assert q.drain() == ["a"]

    def test_delayed_visibility(self):
        q = MessageQueue(delay=2)
        q.put("a")
        assert q.drain() == []
        q.tick()
        assert q.drain() == []
        q.tick()
        assert q.drain() == ["a"]

    def test_fifo_order(self):
        q = MessageQueue(delay=0)
        q.put(1), q.put(2), q.put(3)
        assert q.drain() == [1, 2, 3]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            MessageQueue(delay=-1)


class TestFrameworkInvariants:
    def test_alpha_defaults_to_half_over_n(self):
        fw = ElasticAveragingFramework(make_models(4))
        assert fw.alpha == 0.5 / 4

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ElasticAveragingFramework(make_models(2), alpha=1.5)

    def test_structure_mismatch_rejected(self):
        other = build_bert(BertConfig(vocab_size=16, d_model=8, num_heads=2, num_blocks=3,
                                      d_ff=16, seq_len=9, num_classes=3))
        with pytest.raises(ValueError):
            ElasticAveragingFramework(make_models(1) + [other])

    def test_reference_starts_at_common_init(self):
        models = make_models(3)
        fw = ElasticAveragingFramework(models)
        for name, p in models[0].named_parameters():
            assert np.allclose(fw.reference[name], p.data, atol=1e-6)

    def test_reference_tracks_average_under_sync_queue(self):
        """The reference stays a *bounded-lag* tracker of the parallel-model
        average (Figure 5(b)): after the update order
        x_i <- (1-a)(x_i + d_i) + a*ref, ref <- ref + mean(d), the gap
        between ref and the average is O(a * |mean step|) and must not
        grow across iterations."""
        models = make_models(2, seed=3)
        fw = ElasticAveragingFramework(models, alpha=0.5, queue_delay=0)
        opts = [SGD(m.parameters(), lr=0.05) for m in models]
        gaps = []
        for it in range(6):
            step_norms = []
            for i, (m, o) in enumerate(zip(models, opts)):
                before = fw.capture(i)
                start = m.state_dict()
                m.zero_grad()
                m.loss(batch(seed=10 * it + i)).backward()
                o.step()
                after = m.state_dict()
                step_norms.append(
                    max(np.abs(after[k] - start[k]).max() for k in start)
                )
                fw.commit(i, before)
            assert fw.end_iteration()
            avg: dict[str, list] = {}
            for m in models:
                for name, p in m.named_parameters():
                    avg.setdefault(name, []).append(p.data)
            gap = max(
                np.abs(fw.reference[name] - np.mean(vals, axis=0)).max()
                for name, vals in avg.items()
            )
            # Gap bounded by the iteration's own step size (alpha = 1/2).
            assert gap <= max(step_norms) + 1e-6
            gaps.append(gap)
        # Tracking, not drifting: the gap must not blow up over time.
        assert gaps[-1] < 10 * (gaps[0] + 1e-6)

    def test_elastic_pull_reduces_divergence(self):
        models = make_models(2, seed=1)
        fw = ElasticAveragingFramework(models, queue_delay=0)
        # Artificially separate the models.
        for p in models[0].parameters():
            p.data = p.data + 0.5
        for p in models[1].parameters():
            p.data = p.data - 0.5
        div0 = fw.divergence()
        for i in range(2):
            before = fw.capture(i)
            fw.commit(i, before)  # no optimizer step: pure elastic pull
        fw.end_iteration()
        assert fw.divergence() < div0

    def test_commit_posts_delta_to_queue(self):
        models = make_models(1)
        fw = ElasticAveragingFramework(models, queue_delay=1)
        before = fw.capture(0)
        for p in models[0].parameters():
            p.data = p.data + 1.0
        fw.commit(0, before)
        assert len(fw.queue) == 1

    def test_reference_waits_for_all_n(self):
        models = make_models(3)
        fw = ElasticAveragingFramework(models, queue_delay=0)
        ref_before = {k: v.copy() for k, v in fw.reference.items()}
        fw.commit(0, fw.capture(0))
        fw.commit(1, fw.capture(1))
        assert not fw.reference_step()  # only 2 of 3 arrived
        for k in ref_before:
            assert np.array_equal(fw.reference[k], ref_before[k])
        fw.commit(2, fw.capture(2))
        assert fw.reference_step()

    def test_async_queue_delays_reference_update(self):
        models = make_models(1)
        fw = ElasticAveragingFramework(models, queue_delay=2)
        before = fw.capture(0)
        for p in models[0].parameters():
            p.data = p.data + 1.0
        fw.commit(0, before)
        assert not fw.end_iteration()  # delta not yet visible
        assert fw.end_iteration()  # visible after second tick

    def test_optimizer_agnostic(self):
        """The framework's point (§3.1): it must work unchanged with Adam."""
        models = make_models(2, seed=5)
        fw = ElasticAveragingFramework(models)
        opts = [Adam(m.parameters(), lr=1e-3) for m in models]
        for i, (m, o) in enumerate(zip(models, opts)):
            before = fw.capture(i)
            m.zero_grad()
            m.loss(batch(seed=i)).backward()
            o.step()
            fw.commit(i, before)
        fw.end_iteration()
        assert all(np.all(np.isfinite(v)) for v in fw.reference.values())

    def test_mixed_parameter_dtypes_rejected(self):
        """The flat round has one data dtype; a mix is an error, not a
        silent promotion."""
        models = make_models(2)
        p = next(models[1].parameters())
        p.data = p.data.astype(np.float64)
        with pytest.raises(TypeError, match="one parameter dtype"):
            ElasticAveragingFramework(models)

    def test_add_model_with_other_dtype_rejected(self):
        models = make_models(3)
        fw = ElasticAveragingFramework(models[:2])
        for p in models[2].parameters():
            p.data = p.data.astype(np.float64)
        with pytest.raises(TypeError, match="one parameter dtype"):
            fw.add_model(models[2])
        assert fw.num_parallel == 2
        assert all(p.data.dtype == np.float64 for p in models[2].parameters())

    def test_dtype_drift_after_layout_raises(self):
        """A parameter promoted after the layout was fixed (e.g. by an
        optimizer mixing in float64) fails the gather instead of being
        averaged in a different precision."""
        models = make_models(2)
        fw = ElasticAveragingFramework(models)
        before = fw.capture(0)
        p = next(models[0].parameters())
        p.data = p.data.astype(np.float64)
        untouched = models[0].state_dict()
        with pytest.raises(TypeError):
            fw.commit(0, before)
        with pytest.raises(TypeError):
            fw.capture(0)
        assert len(fw.queue) == 0
        for k, v in models[0].state_dict().items():
            assert v.dtype == untouched[k].dtype and np.array_equal(v, untouched[k])

    def test_reference_model_export(self):
        models = make_models(2)
        fw = ElasticAveragingFramework(models)
        template = build_bert(CFG)
        fw.reference_model(template)
        for name, p in template.named_parameters():
            assert np.allclose(p.data, fw.reference[name])
