"""Trainer update semantics: sync, stale (PipeDream), 2BW lag, AvgPipe."""

from collections import deque

import numpy as np
import pytest

from repro.core.trainer import (
    GRAD_CLIP,
    AvgPipeTrainer,
    PipeDream2BWTrainer,
    PipeDreamTrainer,
    SyncTrainer,
    _TrainerBase,
)
from repro.data.dataset import split_microbatches
from repro.graph.partitioner import Partition
from repro.models.registry import WorkloadSpec
from repro.models import AWDConfig, build_awd_lstm
from repro.optim import SGD


def tiny_awd_spec(target=0.0, batch_size=8) -> WorkloadSpec:
    """A fast AWD-style workload for trainer mechanics tests.

    Uses a low-entropy Markov corpus so the loss has learnable headroom
    below its ~0.9-nat entropy floor (uniform noise would pin every
    trainer at ln(V) and make progress assertions meaningless).
    """
    cfg = AWDConfig(vocab_size=10, embed_dim=8, hidden_dim=10, num_layers=1, bptt=6,
                    dropout=0.0, weight_drop=0.0)
    from repro.data import LMConfig, make_lm_corpus

    tokens, _, _ = make_lm_corpus(LMConfig(corpus_len=700, vocab_size=10, branching=2, seed=2))

    from repro.data import batchify_lm

    def loader(bs, seed):
        return batchify_lm(tokens, batch_size=bs, bptt=cfg.bptt)

    def evaluate(model):
        batches = batchify_lm(tokens[:200], batch_size=4, bptt=cfg.bptt)
        from repro.tensor import no_grad
        model.eval()
        with no_grad():
            loss = float(np.mean([model.loss(b).item() for b in batches]))
        model.train()
        return loss

    return WorkloadSpec(
        name="tiny-awd",
        build_model=lambda: build_awd_lstm(cfg),
        make_train_loader=loader,
        evaluate=evaluate,
        make_optimizer=lambda m: SGD(m.parameters(), lr=0.5),
        target=target,
        metric_mode="min",
        metric_name="loss",
        batch_size=batch_size,
        paper_devices=4,
    )


class TestSyncTrainer:
    def test_trains_and_records_history(self):
        result = SyncTrainer(tiny_awd_spec(), seed=0, max_epochs=2).train()
        assert result.epochs_run == 2
        assert len(result.metric_history) == 2
        assert result.metric_history[1] <= result.metric_history[0] + 0.1

    def test_stops_at_target(self):
        result = SyncTrainer(tiny_awd_spec(target=5.0), seed=0, max_epochs=5).train()
        # a lenient loss target of 5.0 nats should be hit immediately
        assert result.reached_target
        assert result.epochs_to_target <= 5


#: the three layers of the tiny AWD model (embedding, LSTM, head) cut
#: into one and three stages
ONE_STAGE, THREE_STAGES = Partition((0, 3)), Partition((0, 1, 2, 3))


class TestPipeDreamTrainer:
    def test_delayed_updates_converge_but_run(self):
        result = PipeDreamTrainer(tiny_awd_spec(), seed=0, max_epochs=2,
                                  partition=THREE_STAGES).train()
        assert result.epochs_run == 2
        assert np.isfinite(result.final_metric)

    def test_delay_zero_matches_sync_numerics(self):
        """With one stage and one micro-batch nothing is stale: PipeDream
        IS sync training."""
        spec = tiny_awd_spec()
        sync = SyncTrainer(spec, seed=0, max_epochs=1)
        pd = PipeDreamTrainer(spec, seed=0, max_epochs=1, partition=ONE_STAGE, num_micro=1)
        rs = sync.train()
        rp = pd.train()
        assert rp.final_metric == pytest.approx(rs.final_metric, rel=1e-5)

    def test_larger_delay_hurts_or_matches_progress(self):
        spec = tiny_awd_spec()
        small = PipeDreamTrainer(spec, seed=0, max_epochs=2, partition=ONE_STAGE).train()
        large = PipeDreamTrainer(spec, seed=0, max_epochs=2, partition=THREE_STAGES).train()
        assert large.final_metric >= small.final_metric - 0.05

    def test_default_partition_is_the_calibrated_cut(self):
        from repro.core.simcfg import calibration_for
        from repro.models.registry import build_workload

        spec = build_workload("awd")
        trainer = PipeDreamTrainer(spec, seed=0, max_epochs=1)
        assert trainer.runner.partition == calibration_for("awd").partition()
        assert trainer.runner.partition.num_stages == spec.paper_devices


class _GradientFIFO(_TrainerBase):
    """The whole-model gradient FIFO that ``PipeDreamTrainer`` used to be,
    kept here as the reference for 2BW: each micro-batch's gradient is
    applied ``delay`` micro-batch steps after it was computed."""

    system = "fifo"

    def __init__(self, spec, seed, max_epochs, delay, num_micro):
        super().__init__(spec, seed, max_epochs)
        self.model = spec.build_model().seed(seed)
        self.optimizer = spec.make_optimizer(self.model)
        self.loader = spec.make_train_loader(spec.batch_size, seed)
        self.delay = delay
        self.num_micro = num_micro

    def _reset(self):
        self._params = list(self.model.parameters())
        self._fifo = deque()

    def _update(self, batch):
        params, fifo = self._params, self._fifo
        for micro in split_microbatches(batch, self.num_micro):
            self.model.zero_grad()
            self.model.loss(micro).backward()
            fifo.append([
                p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params
            ])
            if len(fifo) > self.delay:
                for p, g in zip(params, fifo.popleft()):
                    p.grad = g
                self.optimizer.clip_grad_norm(GRAD_CLIP)
                self.optimizer.step()
                self.model.zero_grad()


class TestPipeDream2BW:
    def test_one_batch_lag_first_batch_noop(self):
        """The very first batch's gradient is applied at batch 2; after one
        single batch the weights are unchanged."""
        spec = tiny_awd_spec(batch_size=96)  # single batch per epoch
        trainer = PipeDream2BWTrainer(spec, seed=0, max_epochs=1)
        before = trainer.model.state_dict()
        trainer.train()
        after = trainer.model.state_dict()
        changed = any(not np.array_equal(before[k], after[k]) for k in before)
        loader = spec.make_train_loader(96, 0)
        if len(loader) == 1:
            assert not changed
        else:
            assert changed

    def test_trains(self):
        result = PipeDream2BWTrainer(tiny_awd_spec(), seed=0, max_epochs=3).train()
        assert result.metric_history[-1] <= result.metric_history[0] + 0.1

    def test_is_the_gradient_fifo_at_one_batch_delay(self):
        """2BW holds back exactly one batch gradient: histories, weights
        and iteration counts match a one-deep gradient FIFO over single
        micro-batches bit for bit, across repeated train() calls."""
        spec = tiny_awd_spec()
        bw = PipeDream2BWTrainer(spec, seed=0, max_epochs=2)
        fifo = _GradientFIFO(spec, seed=0, max_epochs=2, delay=1, num_micro=1)
        for _ in range(2):
            rb, rf = bw.train(), fifo.train()
            assert [m.hex() for m in rb.metric_history] == [m.hex() for m in rf.metric_history]
            assert rb.iterations == rf.iterations
            sb, sf = bw.model.state_dict(), fifo.model.state_dict()
            assert all(sb[k].tobytes() == sf[k].tobytes() for k in sb)


class TestAvgPipeTrainer:
    def test_parallel_models_start_identical(self):
        trainer = AvgPipeTrainer(tiny_awd_spec(), seed=0, num_pipelines=3)
        s0 = trainer.models[0].state_dict()
        for m in trainer.models[1:]:
            s = m.state_dict()
            assert all(np.array_equal(s0[k], s[k]) for k in s0)

    def test_trains_and_evaluates_reference(self):
        result = AvgPipeTrainer(tiny_awd_spec(), seed=0, max_epochs=2, num_pipelines=2).train()
        assert result.epochs_run == 2
        assert np.isfinite(result.final_metric)
        assert result.metric_history[-1] <= result.metric_history[0] + 0.1

    def test_single_pipeline_close_to_sync(self):
        """N=1 AvgPipe is sync training plus a self-pull (alpha=1): with
        alpha=0 it must match sync exactly."""
        spec = tiny_awd_spec()
        sync = SyncTrainer(spec, seed=0, max_epochs=1).train()
        avg = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=1, alpha=0.0).train()
        assert avg.final_metric == pytest.approx(sync.final_metric, rel=1e-5)

    def test_statistical_efficiency_comparable_to_sync(self):
        """Figure 14's claim at miniature scale: AvgPipe's epochs-to-target
        within 2x of sync on the same task."""
        spec = tiny_awd_spec(target=1.45)
        sync = SyncTrainer(spec, seed=0, max_epochs=12).train()
        avg = AvgPipeTrainer(spec, seed=0, max_epochs=24, num_pipelines=2).train()
        assert sync.reached_target and avg.reached_target
        assert avg.epochs_to_target <= 2 * sync.epochs_to_target + 1

    def test_invalid_pipeline_count(self):
        with pytest.raises(ValueError):
            AvgPipeTrainer(tiny_awd_spec(), num_pipelines=0)

    def test_pipeline_arguments_need_a_partition(self):
        """Whole-model passes would silently drop ``num_micro`` and a
        synchronous ``schedule``; both are errors without ``partition``."""
        from repro.schedules.base import AFABSchedule

        with pytest.raises(ValueError, match="num_micro= needs partition="):
            AvgPipeTrainer(tiny_awd_spec(), num_micro=8)
        with pytest.raises(ValueError, match="schedule= needs partition="):
            AvgPipeTrainer(tiny_awd_spec(), schedule=AFABSchedule())
