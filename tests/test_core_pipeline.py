"""Faithful stage-sliced pipeline execution.

The load-bearing guarantee: slicing a model into stages, shipping
activations as data and running backward as gradient bundles reproduces
the whole-model pass *exactly* (same loss, same gradients, same updated
weights) for synchronous schedules — and implements PipeDream's
weight-stashing semantics for the asynchronous one.
"""

import numpy as np
import pytest

from repro.core.pipeline import PipelinedRunner, StageRuntime
from repro.data.dataset import split_microbatches
from repro.graph.partitioner import Partition, partition_uniform
from repro.models import AWDConfig, BertConfig, GNMTConfig, build_awd_lstm, build_bert, build_gnmt
from repro.optim import SGD
from repro.schedules import AFABSchedule, AdvanceFPSchedule, OneFOneBSchedule, PipeDreamSchedule

GNMT_CFG = GNMTConfig(vocab_size=16, embed_dim=8, hidden_dim=12, encoder_layers=3,
                      decoder_layers=2, src_len=6, tgt_len=6, dropout=0.0)
BERT_CFG = BertConfig(vocab_size=16, d_model=8, num_heads=2, num_blocks=4, d_ff=16,
                      seq_len=9, num_classes=3, dropout=0.0)
AWD_CFG = AWDConfig(vocab_size=10, embed_dim=8, hidden_dim=12, num_layers=2, bptt=5,
                    dropout=0.0, weight_drop=0.0)


def gnmt_batch(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "src": rng.integers(4, 16, size=(n, 6)),
        "tgt_in": rng.integers(4, 16, size=(n, 6)),
        "tgt_out": rng.integers(4, 16, size=(n, 6)),
    }


def bert_batch(n=8, seed=1):
    rng = np.random.default_rng(seed)
    return {"tokens": rng.integers(4, 16, size=(n, 9)), "labels": rng.integers(0, 3, size=n)}


def whole_model_reference(model, batch):
    """Loss and 1/1-scaled gradients from a plain whole-model pass."""
    model.zero_grad()
    loss = model.loss(batch)
    loss.backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    model.zero_grad()
    return float(loss.item()), grads


def pipeline_grads(runner):
    out = {}
    for stage in runner.stages:
        for name, p in stage.named_parameters():
            out[name] = None if p.grad is None else p.grad.copy()
    return out


def match_grad_maps(model, runner, reference, atol=2e-5):
    """Compare whole-model grads to per-stage grads (name translation)."""
    stage_grads = pipeline_grads(runner)
    # Stage names: stage{k}.layer{i}.<param>; model names: layer{j}.<param>
    flat_model = list(reference.items())
    flat_stage = sorted(stage_grads.items())
    assert len(flat_model) == len(flat_stage)
    # Parameters appear in the same layer order in both traversals.
    for (m_name, m_grad), (s_name, s_grad) in zip(flat_model, sorted_stage_order(runner)):
        assert s_grad is not None, s_name
        assert np.allclose(m_grad, s_grad, atol=atol), (m_name, s_name,
                                                        np.abs(m_grad - s_grad).max())


def sorted_stage_order(runner):
    for stage in runner.stages:
        for name, p in stage.named_parameters():
            yield name, (None if p.grad is None else p.grad.copy())


class TestEquivalenceWithWholeModel:
    @pytest.mark.parametrize("schedule", [AFABSchedule(), OneFOneBSchedule(versions=1),
                                          AdvanceFPSchedule(2)],
                             ids=["afab", "1f1b", "advance"])
    @pytest.mark.parametrize("builder,cfg,batch_fn", [
        (build_gnmt, GNMT_CFG, gnmt_batch),
        (build_bert, BERT_CFG, bert_batch),
    ], ids=["gnmt", "bert"])
    def test_loss_and_gradients_match(self, schedule, builder, cfg, batch_fn):
        model = builder(cfg).seed(0)
        batch = batch_fn()
        ref_loss, ref_grads = whole_model_reference(model, batch)

        num_stages = 3
        partition = partition_uniform(len(model.layers), num_stages)
        runner = PipelinedRunner(model, partition, schedule)
        micros = split_microbatches(batch, 4)
        pipe_loss = runner.run_batch(micros)

        assert pipe_loss == pytest.approx(ref_loss, rel=1e-4)
        match_grad_maps(model, runner, ref_grads)

    def test_single_stage_degenerates_to_whole_model(self):
        model = build_bert(BERT_CFG).seed(2)
        batch = bert_batch(seed=5)
        ref_loss, ref_grads = whole_model_reference(model, batch)
        runner = PipelinedRunner(model, Partition(boundaries=(0, len(model.layers))),
                                 AFABSchedule())
        pipe_loss = runner.run_batch(split_microbatches(batch, 2))
        assert pipe_loss == pytest.approx(ref_loss, rel=1e-5)
        match_grad_maps(model, runner, ref_grads)

    def test_optimizer_step_matches_whole_model_sgd(self):
        """One pipelined SGD step == one whole-model SGD step."""
        batch = bert_batch(seed=7)
        model_a = build_bert(BERT_CFG).seed(3)
        model_b = build_bert(BERT_CFG).seed(9)
        model_b.load_state_dict(model_a.state_dict())

        # Whole-model step.
        model_a.zero_grad()
        model_a.loss(batch).backward()
        from repro.optim import SGD as _SGD

        opt = _SGD(model_a.parameters(), lr=0.1)
        opt.clip_grad_norm(5.0)
        opt.step()

        # Pipelined step.
        partition = partition_uniform(len(model_b.layers), 3)
        runner = PipelinedRunner(
            model_b, partition, OneFOneBSchedule(versions=1),
            optimizer_factory=lambda stage: SGD(stage.parameters(), lr=0.1), grad_clip=5.0,
        )
        runner.run_batch(split_microbatches(batch, 4))

        sa, sb = model_a.state_dict(), model_b.state_dict()
        for key in sa:
            assert np.allclose(sa[key], sb[key], atol=5e-5), key


class TestStageRuntime:
    def test_double_forward_same_micro_rejected(self):
        model = build_bert(BERT_CFG)
        stage = StageRuntime(model.layers[:2], 0, 3)
        stage.forward(0, bert_batch(n=2))
        with pytest.raises(RuntimeError):
            stage.forward(0, bert_batch(n=2))

    def test_backward_without_forward_rejected(self):
        model = build_bert(BERT_CFG)
        stage = StageRuntime(model.layers[:2], 0, 3)
        with pytest.raises(RuntimeError):
            stage.backward(0, {})

    def test_in_flight_accounting(self):
        model = build_bert(BERT_CFG)
        stage = StageRuntime(model.layers[:-1], 0, 2)
        stage.forward(0, bert_batch(n=2, seed=3))
        stage.forward(1, bert_batch(n=2, seed=4))
        assert len(stage._stash) == 2

    def test_carried_tensor_gradient_routes_through(self):
        """A tensor that a stage merely passes through must still carry
        gradient back to its producer (GNMT's enc_out across stages)."""
        model = build_gnmt(GNMT_CFG).seed(1)
        batch = gnmt_batch(n=4, seed=2)
        ref_loss, ref_grads = whole_model_reference(model, batch)
        # Cut so that enc_out crosses at least two boundaries.
        partition = partition_uniform(len(model.layers), 4)
        runner = PipelinedRunner(model, partition, AFABSchedule())
        pipe_loss = runner.run_batch(split_microbatches(batch, 2))
        assert pipe_loss == pytest.approx(ref_loss, rel=1e-4)
        match_grad_maps(model, runner, ref_grads)


class TestPipeDreamSemantics:
    def test_gradients_use_forward_time_weights(self):
        """Weight stashing: a micro-batch backwarded after an update must
        produce the gradient of its *forward-time* weights."""
        model = build_bert(BERT_CFG).seed(4)
        partition = partition_uniform(len(model.layers), 2)
        runner = PipelinedRunner(model, partition, PipeDreamSchedule(),
                                 optimizer_factory=lambda stage: SGD(stage.parameters(), lr=0.5),
                                 grad_clip=5.0)
        stage0 = runner.stages[0]

        batch = bert_batch(n=4, seed=8)
        micros = split_microbatches(batch, 2)
        weights_before = stage0.state_dict()
        runner.run_batch(micros)
        weights_after = stage0.state_dict()
        # Async mode must have moved the weights (per-micro updates)...
        changed = any(
            not np.array_equal(weights_before[k], weights_after[k]) for k in weights_before
        )
        assert changed
        # ...and left no stale stash behind.
        assert not stage0._stash

    def test_async_updates_differ_from_sync(self):
        batch = bert_batch(n=4, seed=9)

        def run(schedule):
            model = build_bert(BERT_CFG).seed(5)
            partition = partition_uniform(len(model.layers), 2)
            runner = PipelinedRunner(
                model, partition, schedule,
                optimizer_factory=lambda stage: SGD(stage.parameters(), lr=0.5), grad_clip=5.0,
            )
            runner.run_batch(split_microbatches(batch, 2))
            return model.state_dict()

        sync_state = run(OneFOneBSchedule(versions=1))
        async_state = run(PipeDreamSchedule())
        assert any(not np.allclose(sync_state[k], async_state[k]) for k in sync_state)


class TestFaithfulAvgPipeTrainer:
    def test_faithful_mode_matches_whole_model_mode(self):
        """With dropout off and a synchronous schedule, the stage-sliced
        AvgPipe trainer follows the exact same weight trajectory as the
        default whole-model trainer."""
        from repro.core.trainer import AvgPipeTrainer
        from tests.test_core_trainers import tiny_awd_spec

        spec = tiny_awd_spec()
        model_layers = spec.build_model().layers
        partition = partition_uniform(len(model_layers), 2)

        plain = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        plain.train()

        faithful = AvgPipeTrainer(
            spec, seed=0, max_epochs=1, num_pipelines=2,
            partition=partition, num_micro=2, schedule=OneFOneBSchedule(versions=1),
        )
        faithful.train()

        for m1, m2 in zip(plain.models, faithful.models):
            s1, s2 = m1.state_dict(), m2.state_dict()
            for key in s1:
                assert np.allclose(s1[key], s2[key], atol=3e-5), key

    def test_rejects_async_schedule(self):
        """The AvgPipe round steps each pipeline's optimizer once per
        batch; an asynchronous schedule zeroes every stage's gradients
        after each micro-batch, so that step would see none."""
        from repro.core.trainer import AvgPipeTrainer
        from tests.test_core_trainers import tiny_awd_spec

        spec = tiny_awd_spec()
        partition = partition_uniform(len(spec.build_model().layers), 2)
        with pytest.raises(ValueError, match="synchronous"):
            AvgPipeTrainer(
                spec, seed=0, max_epochs=1, num_pipelines=2,
                partition=partition, num_micro=2, schedule=PipeDreamSchedule(),
            )

    def test_faithful_mode_rejects_ragged_micro_counts(self):
        """A batch that M does not divide is an error, not a silent
        fall-back to fewer micro-batches."""
        from repro.core.trainer import AvgPipeTrainer
        from tests.test_core_trainers import tiny_awd_spec

        spec = tiny_awd_spec(batch_size=6)  # 6 samples do not split into 4
        model_layers = spec.build_model().layers
        partition = partition_uniform(len(model_layers), 2)
        trainer = AvgPipeTrainer(
            spec, seed=0, max_epochs=1, num_pipelines=2,
            partition=partition, num_micro=4,
        )
        with pytest.raises(ValueError, match="not divisible into 4"):
            trainer.train()


class TestStackedGroups:
    """Synchronous batches run as stacked groups of micro-batches."""

    @pytest.mark.parametrize("model,schedule,expected", [
        ("awd", AdvanceFPSchedule(1), 3),   # bounds [5, 4, 3, 2]: groups 3, 3, 2
        ("bert", AdvanceFPSchedule(1), 4),  # bounds [7 .. 2] sum to 27: two groups
        ("bert", AFABSchedule(), 8),
        ("bert", OneFOneBSchedule(versions=1), 3),
    ])
    def test_group_size_on_the_calibrated_cut(self, model, schedule, expected):
        from repro.core.simcfg import calibration_for
        from repro.models.registry import build_workload

        runner = PipelinedRunner(build_workload(model).build_model(),
                                 calibration_for(model).partition(), schedule)
        assert runner.group_size(8) == expected

    def test_small_1f1b_runs_one_micro_batch_per_group(self):
        model = build_bert(BERT_CFG)
        runner = PipelinedRunner(model, partition_uniform(len(model.layers), 2),
                                 OneFOneBSchedule(versions=1))
        assert runner.group_size(8) == 1  # bounds [2, 1]

    @pytest.mark.parametrize("schedule,calls", [
        (AFABSchedule(), 3),                    # one group of 4
        (AdvanceFPSchedule(1), 6),              # bounds [4, 3, 2]: groups of 3 and 1
        (OneFOneBSchedule(versions=1), 6),      # bounds [3, 2, 1]: groups of 2
        (PipeDreamSchedule(), 12),              # async: one forward per micro-batch
    ])
    def test_one_stage_forward_per_group(self, schedule, calls, monkeypatch):
        model = build_bert(BERT_CFG).seed(0)
        runner = PipelinedRunner(model, partition_uniform(len(model.layers), 3), schedule,
                                 optimizer_factory=lambda stage: SGD(stage.parameters(), lr=0.1))
        seen = []
        forward = StageRuntime.forward

        def counting(stage, micro, bundle):
            seen.append(micro)
            return forward(stage, micro, bundle)

        monkeypatch.setattr(StageRuntime, "forward", counting)
        runner.run_batch(split_microbatches(bert_batch(), 4))
        assert len(seen) == calls

    def test_a_loss_over_the_whole_stack_is_rejected(self):
        """A loss head that ignores the micro axis would silently train
        on the group's mean; the runner refuses its scalar loss."""
        from repro.models.pipeline_model import PipelineLayer, PipelineModel
        from repro.verify.oracle import make_toy_model, toy_batch

        class StackMeanLoss(PipelineLayer):
            def forward(self, bundle):
                out = dict(bundle)
                diff = bundle["x"] - bundle["y"]
                out["loss"] = (diff * diff).mean()
                return out

        toy = make_toy_model(2)
        model = PipelineModel(toy.layers[:-1] + [StackMeanLoss()], name="stack-mean")
        runner = PipelinedRunner(model, Partition((0, 1, 3)), AFABSchedule())
        with pytest.raises(ValueError, match="one loss per micro-batch"):
            runner.run_batch(toy_batch(3, 2))


def test_stash_never_exceeds_the_schedule_bound():
    """The runner holds at most as many micro-batches across the pipeline
    as the schedule stashes: a deterministic memory gate, free of RSS
    noise.  Every verified schedule, K in {2, 4, 6}, M in 1..8."""
    from repro.verify.oracle import VERIFIED_SCHEDULES, make_toy_model, toy_batch

    for name, factory in VERIFIED_SCHEDULES.items():
        schedule = factory()
        for K in (2, 4, 6):
            for M in range(1, 9):
                runner = PipelinedRunner(
                    make_toy_model(K), Partition(tuple(range(K)) + (K + 1,)), schedule,
                    optimizer_factory=lambda stage: SGD(stage.parameters(), lr=0.1),
                )
                peak = [0]

                def watch(stage, forward):
                    def wrapped(*args, **kwargs):
                        shipped = forward(*args, **kwargs)
                        held = sum(
                            entry[2] or 1 for s in runner.stages for entry in s._stash.values()
                        )
                        peak[0] = max(peak[0], held)
                        return shipped
                    stage.forward = wrapped

                for stage in runner.stages:
                    watch(stage, stage.forward)
                runner.run_batch(toy_batch(M, 2))
                bound = sum(schedule.stash_bound(k, K, M) for k in range(K))
                assert 0 < peak[0] <= bound, (name, K, M, peak[0], bound)
                assert not any(s._stash for s in runner.stages)


def test_async_schedule_needs_stage_optimizers():
    """An asynchronous schedule zeroes each stage's gradients per
    micro-batch; with no optimizer to step them first they would be lost."""
    model = build_bert(BERT_CFG)
    partition = partition_uniform(len(model.layers), 2)
    with pytest.raises(ValueError, match="optimizer_factory="):
        PipelinedRunner(model, partition, PipeDreamSchedule())


def test_deadlocked_op_streams_raise():
    """Stage 0 waits on micro-batch 1's gradient before forwarding it, so
    the sweep stalls after the ops that can run; it raises instead of
    rescanning a state that can no longer change."""
    from repro.schedules.base import Schedule, StageOp
    from repro.verify.oracle import make_toy_model, toy_batch

    class CrossWait(Schedule):
        name = "cross-wait"
        sync_at_batch_end = False

        def stage_ops(self, stage, num_stages, num_micro):
            if stage == 0:
                order = [("fwd", 0), ("bwd", 1), ("fwd", 1), ("bwd", 0)]
            else:
                order = [("fwd", 0), ("bwd", 0), ("fwd", 1), ("bwd", 1)]
            return [StageOp(kind, micro) for kind, micro in order]

    runner = PipelinedRunner(make_toy_model(2), Partition((0, 1, 3)), CrossWait(),
                             optimizer_factory=lambda stage: SGD(stage.parameters(), lr=0.1))
    with pytest.raises(RuntimeError, match="deadlocked"):
        runner.run_batch(toy_batch(2, 2))
    # The ops before the stall ran: both stages forwarded micro-batch 0
    # and stage 1 already ran its backward.
    assert list(runner.stages[0]._stash) == [0]
    assert not runner.stages[1]._stash


def test_grad_clip_needs_stage_optimizers():
    """Without an optimizer_factory the runner never steps, so a clip
    value would be read by nothing."""
    model = build_bert(BERT_CFG)
    partition = partition_uniform(len(model.layers), 2)
    with pytest.raises(ValueError, match="grad_clip="):
        PipelinedRunner(model, partition, AFABSchedule(), grad_clip=5.0)
    assert PipelinedRunner(model, partition, AFABSchedule()).grad_clip is None
