"""Fault plans and injection: seeded, deterministic, exact mid-flight."""

import json

import numpy as np
import pytest

from repro.resilience import FaultEvent, FaultInjector, FaultPlan
from repro.schedules import OneFOneBSchedule, PipelineSimRunner, StageCosts
from repro.sim import ClusterSpec, Simulator, make_cluster
from repro.sim.trace import SpanKind


def make_setup(pipelines=3, num_micro=8):
    sim = Simulator()
    cluster = make_cluster(sim, 4, spec=ClusterSpec(nodes=2, gpus_per_node=2))
    costs = StageCosts(
        fwd_flops=(4.0e6,) * 4,
        act_out_bytes=(2.0e6,) * 4,
        stash_bytes=(6.0e6,) * 4,
        param_bytes=(1_000_000,) * 4,
    )
    runner = PipelineSimRunner(
        cluster, OneFOneBSchedule(versions=1), costs,
        num_micro=num_micro, mb_size=8.0, num_pipelines=pipelines,
    )
    return sim, cluster, runner


def fault_free_time(iterations=6):
    _, _, runner = make_setup()
    return runner.run(iterations=iterations).total_time


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor", 1.0, 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent("device_crash", -1.0, 0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent("device_crash", 1.0, 0, duration=0.0)

    def test_slowdown_needs_factor_above_one(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent("device_slowdown", 1.0, 0, duration=1.0, factor=1.0)

    def test_link_target_must_be_pair(self):
        with pytest.raises(ValueError, match="pair"):
            FaultEvent("link_partition", 1.0, 0, duration=1.0)

    def test_dict_round_trip(self):
        event = FaultEvent("link_degrade", 2.5, (0, 1), duration=1.0, factor=3.0)
        d = event.to_dict()
        assert d == {"kind": "link_degrade", "at": 2.5, "target": [0, 1],
                     "duration": 1.0, "factor": 3.0}
        assert json.loads(json.dumps(d)) == d


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=[
            FaultEvent("device_crash", 5.0, 0, duration=1.0),
            FaultEvent("device_crash", 1.0, 1, duration=1.0),
        ])
        assert [e.at for e in plan.events] == [1.0, 5.0]

    def test_dict_round_trip(self):
        plan = FaultPlan(events=[
            FaultEvent("device_slowdown", 3.0, 2, duration=1.5, factor=4.0),
            FaultEvent("link_partition", 1.0, (0, 1), duration=2.0),
        ], seed=3)
        d = json.loads(json.dumps(plan.to_dict()))
        assert d["events"] == [e.to_dict() for e in plan.events]
        assert [e["kind"] for e in d["events"]] == ["link_partition", "device_slowdown"]
        assert d["seed"] == plan.seed


class TestFaultInjector:
    def test_pipeline_crash_spares_survivors(self):
        t0 = fault_free_time()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[FaultEvent("pipeline_crash", 0.4 * t0, 1)]))
        runner.run(iterations=6)
        assert runner.iterations_completed[0] == 6
        assert runner.iterations_completed[2] == 6
        assert runner.iterations_completed[1] < 6
        assert injector.log[0].applied_at == pytest.approx(0.4 * t0)

    def test_device_slowdown_window_extends_runtime(self):
        t0 = fault_free_time()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("device_slowdown", 0.2 * t0, 1, duration=0.4 * t0, factor=4.0),
        ]))
        result = runner.run(iterations=6)
        assert result.total_time > 1.05 * t0
        # The window was reverted: the device is back at full speed.
        assert cluster.devices[1].slowdown == 1.0
        assert injector.log[0].reverted_at == pytest.approx(0.6 * t0)

    def test_device_crash_window_stalls_then_resumes(self):
        t0 = fault_free_time()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("device_crash", 0.4 * t0, 1, duration=0.3 * t0),
        ]))
        result = runner.run(iterations=6)
        # All work completes after the restart, one outage window later.
        assert runner.iterations_completed == [6, 6, 6]
        assert result.total_time == pytest.approx(t0 + 0.3 * t0, rel=0.15)
        assert not cluster.devices[1].failed

    def test_link_partition_heals(self):
        t0 = fault_free_time()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("link_partition", 0.4 * t0, (0, 1), duration=0.3 * t0),
        ]))
        result = runner.run(iterations=6)
        assert runner.iterations_completed == [6, 6, 6]
        assert result.total_time > t0
        assert not cluster.link(0, 1).partitioned

    def test_fault_spans_recorded_but_not_in_decomposition(self):
        t0 = fault_free_time()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner, trace=runner.trace)
        injector.install(FaultPlan(events=[
            FaultEvent("device_slowdown", 0.2 * t0, 1, duration=0.3 * t0, factor=2.0),
            FaultEvent("pipeline_crash", 0.5 * t0, 0),
        ]))
        runner.run(iterations=6)
        injector.finalize()
        fault_spans = [s for s in runner.trace.spans
                       if s.kind in (SpanKind.FAULT, SpanKind.RECOVERY)]
        assert len(fault_spans) == 2
        assert all(s.kind is SpanKind.FAULT for s in fault_spans)
        # Equation-1 accounting models healthy execution only.
        assert set(runner.trace.time_decomposition(1)) == {"gpu", "com", "bub", "sync"}

    def test_pipeline_crash_without_runner_rejected(self):
        sim, cluster, _ = make_setup()
        injector = FaultInjector(sim, cluster)
        with pytest.raises(ValueError, match="runner"):
            injector.install(FaultPlan(events=[FaultEvent("pipeline_crash", 1.0, 0)]))

    def test_crashed_pipeline_frees_its_stash(self):
        t0 = fault_free_time()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[FaultEvent("pipeline_crash", 0.4 * t0, 1)]))
        runner.run(iterations=6)
        # All activation memory was returned by survivors AND the victim.
        for device in cluster.devices:
            assert device.memory.by_tag.get("activations", 0) == 0


def test_current_demand_matches_utilization_steps_across_faults():
    # A frozen resource grants nothing: its live demand gauge must agree
    # with the utilization step function, not report the queued demand.
    from repro.sim import SharedResource

    sim = Simulator()
    res = SharedResource(sim, capacity=2.0)
    seen = []

    def check(_=None):
        seen.append(res.current_demand)
        assert res.current_demand == res.utilization_steps[-1][1]

    res.execute(4.0, demand=0.5)
    res.execute(6.0, demand=0.75)
    check()
    for at, change in (
        (0.5, res.freeze),
        (1.0, lambda: res.set_capacity(4.0)),
        (1.5, res.unfreeze),
        (2.0, lambda: res.set_capacity(1.0)),
        (2.5, res.freeze),
        (3.0, res.unfreeze),
    ):
        sim.timeout(at).add_callback(lambda _, change=change: (change(), check()))
    sim.run()
    check()
    assert seen == [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]


def test_crashed_device_telemetry_reports_zero_utilization():
    sim = Simulator()
    cluster = make_cluster(sim, 1, spec=ClusterSpec(nodes=1, gpus_per_node=1))
    device = cluster.devices[0]
    device.run_kernel(1e12, micro_batch_size=4)
    assert device.compute.current_demand > 0.0
    device.fail()
    assert device.compute.current_demand == 0.0
    device.restore()
    assert device.compute.current_demand == device.compute.utilization_steps[-1][1] > 0.0
