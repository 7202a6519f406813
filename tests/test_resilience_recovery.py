"""Elastic resize properties and the recovery-policy ladder.

The resize invariants mirror `test_core_elastic_properties`: the
zero-update fixed point and the conservation identity must survive a membership
change, and an evict-then-immediately-rejoin must be invisible to the
reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ElasticAveragingFramework
from repro.core.checkpoint import save_trainer
from repro.core.trainer import AvgPipeTrainer
from repro.models.pipeline_model import PipelineModel
from repro.resilience import (
    EvictPipeline,
    FailureReport,
    RecoveryManager,
    RejoinPipeline,
    RestartFromCheckpoint,
    RetunePlan,
)
from tests.test_core_elastic_properties import _Probe, apply_updates, make_framework
from tests.test_core_trainers import tiny_awd_spec


def _probe_model():
    return PipelineModel(layers=[_Probe()], name="probe")


def _without(framework, victim):
    """Survivor indices after evicting ``victim``."""
    return [i for i in range(framework.num_parallel) if i != victim]


def _ref_copy(framework):
    return {k: v.copy() for k, v in framework.reference.items()}


# --------------------------------------------------------------------- #
# resize: alpha renormalization and validation


class TestResize:
    def test_auto_alpha_renormalizes(self):
        framework, _ = make_framework(4, alpha=None)
        assert framework.alpha == 0.5 / 4
        framework.resize([0, 1, 2])
        assert framework.alpha == 0.5 / 3
        framework.resize([0, 2])
        assert framework.alpha == 0.5 / 2
        assert framework.num_parallel == 2

    def test_explicit_alpha_is_kept(self):
        framework, _ = make_framework(4, alpha=0.2)
        framework.resize([0, 1])
        assert framework.alpha == 0.2

    def test_resize_validation(self):
        framework, _ = make_framework(3)
        with pytest.raises(ValueError, match="at least one"):
            framework.resize([])
        with pytest.raises(ValueError, match="duplicate"):
            framework.resize([0, 0])
        with pytest.raises(ValueError, match="out of range"):
            framework.resize([0, 5])

    def test_resize_discards_the_in_flight_round(self):
        framework, models = make_framework(3, alpha=None)
        before = framework.capture(0)
        for _, p in models[0].named_parameters():
            p.data = p.data + np.float32(1.0)
        framework.commit(0, before)
        ref0 = _ref_copy(framework)
        framework.resize(_without(framework, 0))
        # The posted delta came from the victim under N=3 normalization;
        # ending a round now must not fold it into the reference.
        framework.end_iteration()
        for name in ref0:
            np.testing.assert_array_equal(framework.reference[name], ref0[name])


# --------------------------------------------------------------------- #
# resize: the elastic invariants survive


@pytest.mark.parametrize("n,drop", [(3, 1), (5, 0), (4, 2)])
def test_alpha_reciprocal_fixed_point_survives_resize(n, drop):
    """All survivors at the reference with zero updates: a round after an
    eviction must change nothing, exactly as at the original N."""
    framework, _ = make_framework(n, alpha=None)
    framework.resize(_without(framework, drop))
    assert framework.alpha == 0.5 / (n - 1)
    ref0 = _ref_copy(framework)
    states0 = [m.state_dict() for m in framework.models]
    apply_updates(framework, framework.models, [np.float32(0.0)] * (n - 1))
    for name in ref0:
        np.testing.assert_array_equal(framework.reference[name], ref0[name])
    for model, s0 in zip(framework.models, states0):
        for k, v in model.state_dict().items():
            np.testing.assert_allclose(v, s0[k], rtol=2e-7, atol=0)
    assert framework.divergence() < 1e-6


@settings(max_examples=20, deadline=None)
@given(
    updates=st.lists(st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3),
                     min_size=2, max_size=4),
    victim=st.integers(0, 4),
    seed=st.integers(0, 100),
)
def test_conservation_identity_survives_resize(updates, victim, seed):
    """Evict a pipeline sitting at the consensus point (so the survivors'
    mean still equals the reference, the identity's precondition), then
    one full round at alpha = 1/N' must redistribute without creating
    mass — resize reset the accumulators consistently."""
    n_before = len(updates) + 1
    victim = victim % n_before
    models = [_probe_model() for _ in range(n_before)]
    rng = np.random.default_rng(seed)
    keep = [m for i, m in enumerate(models) if i != victim]
    for m in keep:  # distinct survivors: conservation must not rely on symmetry
        for _, p in m.named_parameters():
            p.data = rng.standard_normal(p.shape).astype(np.float32)
    # The victim sits at the survivors' mean, so evicting it leaves the
    # reference equal to the survivors' mean — the identity's precondition.
    victim_state = {
        name: np.mean([m.state_dict()[name] for m in keep], axis=0, dtype=np.float64)
        .astype(np.float32)
        for name in keep[0].state_dict()
    }
    models[victim].load_state_dict(victim_state)
    framework = ElasticAveragingFramework(models, alpha=None, queue_delay=0)
    framework.resize(_without(framework, victim))
    framework.alpha = 1.0 / framework.num_parallel  # the identity holds at 1/N'
    survivors = framework.models

    post_opt_total: dict[str, np.ndarray] = {}
    for i, (model, upd) in enumerate(zip(survivors, updates)):
        before = framework.capture(i)
        for name, p in model.named_parameters():
            p.data = p.data + np.float32(upd)
            post_opt_total[name] = post_opt_total.get(name, 0.0) + p.data.astype(np.float64)
        framework.commit(i, before)
    ref_before = {k: v.astype(np.float64) for k, v in framework.reference.items()}
    framework.end_iteration()

    for name in ref_before:
        total_before = post_opt_total[name] + ref_before[name]
        total_after = sum(
            dict(m.named_parameters())[name].data.astype(np.float64) for m in survivors
        ) + framework.reference[name].astype(np.float64)
        np.testing.assert_allclose(total_after, total_before, atol=1e-5)


class TestEvictThenRejoin:
    def test_reference_bitwise_unchanged(self):
        framework, models = make_framework(3, alpha=None)
        rng = np.random.default_rng(7)
        for _ in range(3):  # drift away from the symmetric start
            apply_updates(framework, models,
                          [np.float32(u) for u in rng.uniform(-1, 1, size=3)])
        ref0 = _ref_copy(framework)
        framework.resize(_without(framework, 1))
        framework.add_model(_probe_model())
        assert framework.num_parallel == 3
        assert framework.alpha == 0.5 / 3
        for name in ref0:
            np.testing.assert_array_equal(framework.reference[name], ref0[name])

    def test_newcomer_starts_at_the_reference(self):
        framework, models = make_framework(3, alpha=None)
        apply_updates(framework, models, [np.float32(u) for u in (0.5, -0.25, 1.0)])
        newcomer = _probe_model()
        framework.resize(_without(framework, 2))
        framework.add_model(newcomer)
        for name, value in newcomer.state_dict().items():
            np.testing.assert_array_equal(value, framework.reference[name])

    def test_trajectory_unchanged_at_the_fixed_point(self):
        """At the fixed point, evict + rejoin + further zero-update rounds
        leave the reference exactly where it started: a churn event on a
        converged consensus is a no-op."""
        framework, _ = make_framework(3, alpha=None)
        ref0 = _ref_copy(framework)
        apply_updates(framework, framework.models, [np.float32(0.0)] * 3)
        framework.resize(_without(framework, 0))
        framework.add_model(_probe_model())
        apply_updates(framework, framework.models, [np.float32(0.0)] * 3)
        for name in ref0:
            np.testing.assert_array_equal(framework.reference[name], ref0[name])

    def test_mismatched_structure_rejected(self):
        framework, _ = make_framework(2)
        wrong = PipelineModel(layers=[_Probe(), _Probe()], name="probe2")
        with pytest.raises(ValueError, match="mismatched parameter structure"):
            framework.add_model(wrong)


# --------------------------------------------------------------------- #
# trainer-level evict / rejoin


class TestTrainerElasticity:
    def test_evict_renormalizes_to_the_tuned_rule(self):
        trainer = AvgPipeTrainer(tiny_awd_spec(), seed=0, max_epochs=1,
                                 num_pipelines=3)
        trainer.train()
        trainer.evict_pipeline(1)
        assert trainer.num_pipelines == 2
        assert len(trainer.models) == len(trainer.optimizers) == 2
        assert trainer.framework.num_parallel == 2
        assert trainer.framework.alpha == pytest.approx(0.5 / 2)

    def test_cannot_evict_the_last_pipeline(self):
        trainer = AvgPipeTrainer(tiny_awd_spec(), seed=0, max_epochs=1,
                                 num_pipelines=2)
        with pytest.raises(ValueError, match="out of range"):
            trainer.evict_pipeline(5)
        trainer.evict_pipeline(0)
        with pytest.raises(RuntimeError, match="last pipeline"):
            trainer.evict_pipeline(0)

    def test_rejoin_seeds_from_reference(self):
        trainer = AvgPipeTrainer(tiny_awd_spec(), seed=0, max_epochs=1,
                                 num_pipelines=3)
        trainer.train()
        trainer.evict_pipeline(2)
        index = trainer.rejoin_pipeline()
        assert index == 2
        assert trainer.num_pipelines == 3
        assert trainer.framework.alpha == pytest.approx(0.5 / 3)
        state = trainer.models[index].state_dict()
        for name, value in trainer.framework.reference.items():
            np.testing.assert_array_equal(state[name], value)


# --------------------------------------------------------------------- #
# policies and the manager


class TestRecoveryManager:
    def _trained(self, n=3):
        trainer = AvgPipeTrainer(tiny_awd_spec(), seed=0, max_epochs=1,
                                 num_pipelines=n)
        trainer.train()
        return trainer

    def test_routes_crash_to_evict(self):
        trainer = self._trained()
        manager = RecoveryManager([RejoinPipeline(), EvictPipeline()])
        record = manager.handle(
            FailureReport("pipeline_crash", 1, detected_at=5.0), trainer, now=6.0
        )
        assert record is not None and record.policy == "evict"
        assert record.recovered_at == 6.0
        assert record.details["num_pipelines"] == 2
        assert trainer.num_pipelines == 2
        assert manager.records == [record]
        assert manager.unhandled == []

    def test_unclaimed_report_lands_in_unhandled(self):
        trainer = self._trained()
        manager = RecoveryManager([])
        report = FailureReport("pipeline_crash", 1, detected_at=5.0)
        assert manager.handle(report, trainer, now=6.0) is None
        assert manager.unhandled == [report]
        assert trainer.num_pipelines == 3  # nothing was applied

    def test_restart_from_checkpoint_policy(self, tmp_path):
        trained = self._trained(n=2)
        path = tmp_path / "ckpt.npz"
        save_trainer(trained, path)

        wrecked = AvgPipeTrainer(tiny_awd_spec(), seed=99, max_epochs=1,
                                 num_pipelines=2)
        manager = RecoveryManager([RestartFromCheckpoint(path)])
        record = manager.handle(
            FailureReport("device_crash", 0, detected_at=1.0), wrecked, now=2.0
        )
        assert record is not None and record.policy == "restart"
        for m1, m2 in zip(trained.models, wrecked.models):
            s1, s2 = m1.state_dict(), m2.state_dict()
            assert all(np.array_equal(s1[k], s2[k]) for k in s1)
        for k in trained.framework.reference:
            np.testing.assert_array_equal(
                trained.framework.reference[k], wrecked.framework.reference[k]
            )

    def test_retune_degrades_the_cluster_by_observed_severity(self):
        from repro.core.profiler import Profiler
        from repro.graph import LayerCost, partition_model
        from repro.schedules import OneFOneBSchedule
        from repro.sim import ClusterSpec

        spec = ClusterSpec(nodes=2, gpus_per_node=2)
        layer_costs = [
            LayerCost(f"l{i}", flops_per_sample=2.0e5,
                      activation_bytes_per_sample=2.0e4, param_bytes=500_000)
            for i in range(8)
        ]
        partition = partition_model(
            layer_costs, 4, bandwidth_bytes_per_sec=spec.inter_node_bandwidth,
            flops_per_sec=spec.peak_flops,
        )
        profiler = Profiler(
            layer_costs=layer_costs, partition=partition,
            schedule=OneFOneBSchedule(versions=1), cluster_spec=spec,
            batch_size=64, with_reference_model=True,
        )
        policy = RetunePlan(profiler, memory_limit_bytes=2 * 1024**3,
                            m_candidates=[8, 16], n_candidates=[1, 2])
        report = FailureReport("straggler", 2, detected_at=3.0,
                               evidence="capacity 4x below peak", severity=4.0)
        assert policy.handles(report)
        details = policy.apply(None, report)
        assert details["slowdown"] == 4.0
        assert details["m"] in (8, 16)
        assert details["n"] in (1, 2)
        assert details["measured_batch_time"] > 0
        assert policy.last_outcome is not None
        # The original profiler's cluster model is untouched.
        assert profiler.cluster_spec is spec

    def test_retune_details_are_deterministic_and_analytic(self):
        from tests.test_core_predictor import make_profiler

        profiler = make_profiler()
        report = FailureReport("straggler", 1, detected_at=1.0, severity=2.0)
        first = RetunePlan(
            profiler, 64 * 2**30, m_candidates=[1, 2], n_candidates=[1]
        ).apply(None, report)
        again = RetunePlan(
            profiler, 64 * 2**30, m_candidates=[1, 2], n_candidates=[1]
        ).apply(None, report)
        assert first == again
        assert set(first) == {
            "slowdown", "m", "n", "measured_batch_time",
            "boundaries", "placement", "repartitioned",
        }
