"""Detection fires iff a fault was injected — the negative-path contract."""

import pytest

from repro.resilience import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    HeartbeatDetector,
    IterationHeartbeat,
)
from tests.test_resilience_faults import fault_free_time, make_setup

ITERS = 6


def calibrated_interval():
    """One batch time from a fault-free run, as the chaos harness does."""
    return fault_free_time(iterations=ITERS) / ITERS


class TestHeartbeatDetector:
    def test_no_false_positives_on_a_fault_free_run(self):
        interval = calibrated_interval()
        sim, cluster, runner = make_setup()
        detector = HeartbeatDetector(sim, runner, cluster=cluster,
                                     interval=interval, miss_threshold=2.0)
        detector.start()
        runner.run(iterations=ITERS)
        assert detector.reports == []

    def test_injected_crash_detected_within_heartbeat_multiple(self):
        interval = calibrated_interval()
        miss = 2.0
        fault_at = 0.25 * interval * ITERS
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[FaultEvent("pipeline_crash", fault_at, 1)]))
        detector = HeartbeatDetector(sim, runner, cluster=cluster,
                                     interval=interval, miss_threshold=miss)
        detector.start()
        runner.run(iterations=ITERS)
        assert [r.kind for r in detector.reports] == ["pipeline_crash"]
        report = detector.reports[0]
        assert report.target == 1
        assert report.detected_at > fault_at
        # Silence threshold + at most one full polling period of slack.
        assert report.detected_at - fault_at <= interval * (miss + 2)

    def test_frozen_device_reported_as_device_crash_not_silence(self):
        interval = calibrated_interval()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("device_crash", 0.37 * interval * ITERS, 1,
                       duration=4 * interval),
        ]))
        detector = HeartbeatDetector(sim, runner, cluster=cluster,
                                     interval=interval, miss_threshold=2.0)
        detector.start()
        runner.run(iterations=ITERS)
        kinds = {r.kind for r in detector.reports}
        assert "device_crash" in kinds
        # Straight-chain placement: the dead device explains every
        # pipeline's silence, so no pipeline is (wrongly) declared dead.
        assert "pipeline_crash" not in kinds
        report = next(r for r in detector.reports if r.kind == "device_crash")
        assert report.target == 1
        assert "frozen" in report.evidence

    def test_straggler_reported_with_observed_severity(self):
        interval = calibrated_interval()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("device_slowdown", 0.37 * interval * ITERS, 2,
                       duration=4 * interval, factor=4.0),
        ]))
        detector = HeartbeatDetector(sim, runner, cluster=cluster,
                                     interval=interval, miss_threshold=2.0,
                                     straggler_factor=2.0)
        detector.start()
        runner.run(iterations=ITERS)
        stragglers = [r for r in detector.reports if r.kind == "straggler"]
        assert [r.target for r in stragglers] == [2]
        assert stragglers[0].severity == pytest.approx(4.0)
        assert {r.kind for r in detector.reports} == {"straggler"}

    def test_straggler_ignored_without_straggler_factor(self):
        interval = calibrated_interval()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("device_slowdown", 0.37 * interval * ITERS, 2,
                       duration=4 * interval, factor=4.0),
        ]))
        detector = HeartbeatDetector(sim, runner, cluster=cluster,
                                     interval=interval, miss_threshold=2.0)
        detector.start()
        runner.run(iterations=ITERS)
        assert detector.reports == []

    def test_severed_link_reported_via_telemetry(self):
        interval = calibrated_interval()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("link_partition", 0.37 * interval * ITERS, (0, 1),
                       duration=4 * interval),
        ]))
        detector = HeartbeatDetector(sim, runner, cluster=cluster,
                                     interval=interval, miss_threshold=2.0)
        detector.start()
        runner.run(iterations=ITERS)
        kinds = {r.kind for r in detector.reports}
        assert "link_partition" in kinds
        assert "pipeline_crash" not in kinds

    def test_cluster_is_required(self):
        sim, cluster, runner = make_setup()
        with pytest.raises(TypeError):
            HeartbeatDetector(sim, runner, interval=1.0)

    def test_each_failure_reported_once(self):
        interval = calibrated_interval()
        sim, cluster, runner = make_setup()
        injector = FaultInjector(sim, cluster, runner=runner)
        injector.install(FaultPlan(events=[
            FaultEvent("pipeline_crash", 0.25 * interval * ITERS, 1),
        ]))
        detector = HeartbeatDetector(sim, runner, cluster=cluster,
                                     interval=interval, miss_threshold=2.0)
        detector.start()
        runner.run(iterations=ITERS)
        # Many polling periods pass after detection; still one report.
        assert len(detector.reports) == 1


class TestIterationHeartbeat:
    def test_silent_while_everyone_beats(self):
        hb = IterationHeartbeat(miss_threshold=2)
        for rnd in range(5):
            for p in range(3):
                hb.beat(p, rnd)
            assert hb.check() == []

    def test_lagging_pipeline_reported_after_threshold(self):
        hb = IterationHeartbeat(miss_threshold=2)
        for rnd in range(4):
            hb.beat(0, rnd)
            hb.beat(1, rnd)
            if rnd < 1:
                hb.beat(2, rnd)
            reports = hb.check()
            if rnd < 3:  # lag of 0..2 rounds: within threshold
                assert reports == []
            else:
                assert [r.target for r in reports] == [2]
                assert reports[0].kind == "pipeline_crash"

    def test_reported_once_then_silent(self):
        hb = IterationHeartbeat(miss_threshold=1)
        hb.beat(0, 0)
        hb.beat(1, 0)
        hb.beat(0, 1)
        hb.beat(0, 2)
        assert len(hb.check()) == 1
        assert hb.check() == []

    def test_retired_pipeline_not_reported(self):
        hb = IterationHeartbeat(miss_threshold=1)
        hb.beat(0, 0)
        hb.beat(1, 0)
        hb.retire(1)
        hb.beat(0, 1)
        hb.beat(0, 2)
        assert hb.check() == []
