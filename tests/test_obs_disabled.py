"""Negative path: observability off must mean *nothing* changes.

Three layers of the contract:

* a disabled registry hands out the shared no-op instrument and creates
  zero series, no matter how hard call sites hammer it;
* the sim executor produces identical measurements with and without a
  registry attached (and with the NULL registry);
* the numeric trainer's loss trajectory and final weights are bitwise
  identical with telemetry hooks installed vs absent, and the elastic
  round stays so across membership changes and a checkpoint resume.
"""

import numpy as np

from repro.obs import NULL_REGISTRY, MetricRegistry, TrainingTelemetry
from repro.schedules.base import AFABSchedule
from repro.schedules.executor import PipelineSimRunner, StageCosts
from repro.sim.cluster import ClusterSpec, make_cluster
from repro.sim.events import Simulator


def test_disabled_registry_creates_no_series():
    reg = MetricRegistry(enabled=False)
    for i in range(100):
        reg.counter("a", device=i).inc(1.0)
        reg.gauge("b", device=i).set(float(i))
        reg.histogram("c", device=i).observe(float(i))
    assert len(reg) == 0
    assert list(reg.series()) == []
    assert reg.snapshot() == {}
    assert reg.get("a", device=0) is None
    assert reg.value("a", device=0, default=-1.0) == -1.0


def test_disabled_registry_hands_out_shared_null_instrument():
    reg = MetricRegistry(enabled=False)
    null = reg.counter("x")
    assert null is reg.gauge("y") is reg.histogram("z")
    assert null is NULL_REGISTRY.counter("anything", label=1)
    null.inc(); null.set(5.0); null.observe(2.0)  # all no-ops
    assert null.value == 0.0


def _run_sim(registry):
    K, M = 2, 4
    costs = StageCosts(
        fwd_flops=(4.0e6,) * K,
        act_out_bytes=(4.0e6,) * K,
        stash_bytes=(8.0e6,) * K,
        param_bytes=(1_000_000,) * K,
    )
    sim = Simulator()
    cluster = make_cluster(
        sim, K, spec=ClusterSpec(nodes=2, gpus_per_node=1, memory_bytes=2**31)
    )
    runner = PipelineSimRunner(
        cluster, AFABSchedule(), costs, num_micro=M, mb_size=8.0, registry=registry
    )
    return runner.run(iterations=2)


def test_executor_results_identical_with_and_without_registry():
    bare = _run_sim(None)
    instrumented = _run_sim(MetricRegistry())
    nulled = _run_sim(NULL_REGISTRY)
    for other in (instrumented, nulled):
        assert other.batch_time == bare.batch_time
        assert other.total_time == bare.total_time
        assert other.decomposition == bare.decomposition
        assert other.peak_memory == bare.peak_memory
    assert len(NULL_REGISTRY) == 0  # the shared null registry stayed empty


def test_default_runner_records_no_metrics():
    result = _run_sim(None)
    assert result.trace.registry is None
    assert result.oom is None


def test_trainer_trajectory_bitwise_identical_with_telemetry():
    from repro.core.trainer import AvgPipeTrainer
    from repro.resilience.chaos import tiny_chaos_spec

    def run(telemetry):
        trainer = AvgPipeTrainer(
            tiny_chaos_spec(), seed=3, num_pipelines=2, max_epochs=2,
            telemetry=telemetry,
        )
        result = trainer.train()
        return result, trainer

    registry = MetricRegistry()
    bare_result, bare_trainer = run(None)
    obs_result, obs_trainer = run(TrainingTelemetry(registry))

    # Telemetry must observe, never steer: bitwise-equal trajectories.
    assert obs_result.metric_history == bare_result.metric_history
    assert obs_result.epochs_run == bare_result.epochs_run
    for bare_model, obs_model in zip(bare_trainer.models, obs_trainer.models):
        for name, param in bare_model.named_parameters():
            other = dict(obs_model.named_parameters())[name]
            assert np.array_equal(param.data, other.data), name
    for name, ref in bare_trainer.framework.reference.items():
        assert np.array_equal(ref, obs_trainer.framework.reference[name]), name

    # ... and it did observe: losses, rounds, divergence, elastic pulls.
    assert registry.value("train.rounds") > 0
    assert registry.value("elastic.reference_updates") > 0
    assert registry.get("train.loss", pipeline=0) is not None
    assert registry.get("elastic.pull_rms", model=0) is not None


def test_disabled_telemetry_records_nothing_through_the_trainer():
    from repro.core.trainer import AvgPipeTrainer
    from repro.resilience.chaos import tiny_chaos_spec

    reg = MetricRegistry(enabled=False)
    trainer = AvgPipeTrainer(
        tiny_chaos_spec(), seed=3, num_pipelines=2, max_epochs=1,
        telemetry=TrainingTelemetry(reg),
    )
    trainer.train()
    assert len(reg) == 0


def test_elastic_rounds_bitwise_identical_with_registry_through_resize_and_resume(tmp_path):
    """The elastic round runs the same code with a registry attached:
    registry-on and registry-off frameworks, driven through identical
    rounds across an evict, a rejoin and a checkpoint resume, keep
    bitwise-equal models and references, and the counters see every
    commit and every reference update exactly once."""
    from repro.core.checkpoint import load_trainer, save_trainer
    from repro.core.trainer import AvgPipeTrainer
    from repro.resilience.chaos import tiny_chaos_spec

    spec = tiny_chaos_spec()

    def build(registry):
        telemetry = TrainingTelemetry(registry) if registry is not None else None
        return AvgPipeTrainer(spec, seed=3, num_pipelines=2, max_epochs=1, telemetry=telemetry)

    def run_rounds(trainer, rounds):
        batches = iter(trainer.loader)
        for _ in range(rounds):
            for pos in range(trainer.num_pipelines):
                trainer.step(pos, next(batches))
            trainer.end_round()

    def assert_identical(a, b):
        assert len(a.models) == len(b.models)
        for ma, mb in zip(a.models, b.models):
            sa, sb = ma.state_dict(), mb.state_dict()
            for k in sa:
                assert np.array_equal(sa[k], sb[k]), k
        for k, ref in a.framework.reference.items():
            assert np.array_equal(ref, b.framework.reference[k]), k

    registry = MetricRegistry()
    bare, obs = build(None), build(registry)
    commits = rounds = 0

    def step(n):
        nonlocal commits, rounds
        for trainer in (bare, obs):
            run_rounds(trainer, n)
        commits += bare.num_pipelines * n
        rounds += n
        assert_identical(bare, obs)

    step(3)
    for trainer in (bare, obs):
        trainer.evict_pipeline(1)
    step(2)
    for trainer in (bare, obs):
        trainer.rejoin_pipeline()
    step(2)
    for name, trainer in (("bare", bare), ("obs", obs)):
        save_trainer(trainer, tmp_path / f"{name}.npz")
    bare, obs = build(None), build(registry)
    load_trainer(bare, tmp_path / "bare.npz")
    load_trainer(obs, tmp_path / "obs.npz")
    assert_identical(bare, obs)
    step(2)

    total_commits = sum(inst.value for _, _, inst in registry.series("elastic.commits"))
    assert total_commits == commits == 2 * 3 + 1 * 2 + 2 * 2 + 2 * 2
    assert registry.value("elastic.reference_updates") == rounds == 9
    assert registry.value("train.rounds") == rounds
