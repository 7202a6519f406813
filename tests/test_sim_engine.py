"""Discrete-event engine: events, processes, processor sharing, memory."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    AllOf,
    Event,
    MemoryLedger,
    OutOfMemoryError,
    SharedResource,
    Simulator,
)


class TestEventsAndProcesses:
    def test_timeout_ordering(self):
        sim = Simulator()
        order = []

        def proc(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.process(proc("late", 2.0))
        sim.process(proc("early", 1.0))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == pytest.approx(2.0)

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []

        def proc(name):
            yield sim.timeout(1.0)
            order.append(name)

        for i in range(5):
            sim.process(proc(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_event_value_passed_to_process(self):
        sim = Simulator()
        seen = []

        def proc(ev):
            value = yield ev
            seen.append(value)

        ev = sim.event()
        sim.process(proc(ev))
        sim.schedule(1.0, ev)
        ev.value = "payload"
        sim.run()
        assert seen == ["payload"]

    def test_double_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_all_of_waits_for_every_child(self):
        sim = Simulator()
        done = []

        def child(delay):
            yield sim.timeout(delay)

        procs = [sim.process(child(d)) for d in (1.0, 3.0, 2.0)]

        def waiter():
            yield AllOf(sim, procs)
            done.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert done == [pytest.approx(3.0)]

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()
        fired = []

        def waiter():
            yield AllOf(sim, [])
            fired.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert fired == [0.0]

    def test_process_return_value(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return 42

        results = []

        def outer():
            value = yield sim.process(inner())
            results.append(value)

        sim.process(outer())
        sim.run()
        assert results == [42]

    def test_deadlock_detection(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never succeeds

        proc = sim.process(stuck())
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run_until_process(proc)

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestProcessorSharing:
    def _run_one(self, capacity, jobs):
        """jobs: list of (work, demand, start). Returns dict idx -> finish."""
        sim = Simulator()
        res = SharedResource(sim, capacity=capacity)
        finishes = {}

        def proc(i, work, demand, start):
            yield sim.timeout(start)
            yield res.execute(work, demand)
            finishes[i] = sim.now

        for i, job in enumerate(jobs):
            sim.process(proc(i, *job))
        sim.run()
        return finishes

    def test_single_task_duration(self):
        out = self._run_one(10.0, [(50.0, 0.5, 0.0)])
        assert out[0] == pytest.approx(10.0)  # 50 / (10 * 0.5)

    def test_undersubscribed_tasks_do_not_interfere(self):
        out = self._run_one(10.0, [(25.0, 0.5, 0.0), (25.0, 0.5, 0.0)])
        assert out[0] == pytest.approx(5.0)
        assert out[1] == pytest.approx(5.0)

    def test_oversubscription_stretches_proportionally(self):
        # Two demand-1.0 tasks share: each at 5 units/s.
        out = self._run_one(10.0, [(50.0, 1.0, 0.0), (50.0, 1.0, 0.0)])
        assert out[0] == pytest.approx(10.0)
        assert out[1] == pytest.approx(10.0)

    def test_late_joiner_slows_existing_task(self):
        # Verified by hand in the executor smoke test:
        out = self._run_one(10.0, [(50.0, 0.5, 0.0), (50.0, 0.5, 0.0), (50.0, 0.8, 2.0)])
        assert out[2] == pytest.approx(13.25, abs=1e-6)
        assert out[0] == pytest.approx(15.0, abs=1e-6)

    def test_zero_work_completes_instantly(self):
        out = self._run_one(10.0, [(0.0, 1.0, 3.0)])
        assert out[0] == pytest.approx(3.0)

    def test_invalid_demand(self):
        sim = Simulator()
        res = SharedResource(sim, capacity=1.0)
        with pytest.raises(ValueError):
            res.execute(1.0, 0.0)
        with pytest.raises(ValueError):
            res.execute(1.0, 1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        works=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=5),
        demands=st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
    )
    def test_work_conservation(self, works, demands):
        """Total work completed equals capacity x utilization integral."""
        sim = Simulator()
        res = SharedResource(sim, capacity=7.0)

        def proc(work, demand):
            yield res.execute(work, demand)

        for w, d in zip(works, demands):
            sim.process(proc(w, d))
        sim.run()
        done_work = sum(works)
        integral = res.utilization_integral(sim.now) * 7.0
        assert integral == pytest.approx(done_work, rel=1e-6)

    def test_utilization_steps_recorded(self):
        sim = Simulator()
        res = SharedResource(sim, capacity=10.0)

        def proc():
            yield res.execute(50.0, 0.5)

        sim.process(proc())
        sim.run()
        # Steps: initial 0, rise to 0.5, fall back to 0.
        values = [u for _, u in res.utilization_steps]
        assert 0.5 in values
        assert values[-1] == 0.0

    def test_busy_time(self):
        sim = Simulator()
        res = SharedResource(sim, capacity=10.0)

        def proc(delay):
            yield sim.timeout(delay)
            yield res.execute(10.0, 1.0)

        sim.process(proc(0.0))
        sim.process(proc(5.0))
        sim.run()
        # two disjoint 1 s tasks at full demand: busy time = utilization integral
        assert res.utilization_integral(sim.now) == pytest.approx(2.0)

    @settings(max_examples=30, deadline=None)
    @given(
        gaps=st.lists(st.sampled_from([0.0, 0.25, 0.1, 1.0 / 3.0, 2.5]), max_size=12),
        utils=st.lists(st.sampled_from([0.0, 0.3, 0.75, 1.0, 0.1]), min_size=12, max_size=12),
        horizon=st.one_of(st.none(), st.floats(0.0, 8.0)),
    )
    def test_utilization_integral_matches_the_step_loop(self, gaps, utils, horizon):
        """The array integral adds the same step areas in the same order
        as a loop over the steps, so it is bitwise equal."""
        sim = Simulator()
        res = SharedResource(sim, capacity=1.0)
        t = 0.0
        for gap, u in zip(gaps, utils):
            t += gap
            res.utilization_steps.append((t, u))
        sim.now = t + 0.5
        end = sim.now if horizon is None else horizon
        steps = res.utilization_steps
        total = 0.0
        for i, (start, u) in enumerate(steps):
            stop = min(steps[i + 1][0] if i + 1 < len(steps) else end, end)
            if stop > start:
                total += (stop - start) * u
        assert res.utilization_integral(horizon).hex() == total.hex()


class TestMemoryLedger:
    def test_alloc_free_peak(self):
        mem = MemoryLedger(capacity=100)
        mem.alloc(60, tag="weights")
        mem.alloc(30, tag="acts")
        mem.free(30, tag="acts")
        assert mem.used == 60
        assert mem.peak == 90
        assert mem.peak_by_tag["acts"] == 30

    def test_oom_raises_with_context(self):
        mem = MemoryLedger(capacity=100, device_name="gpu3")
        mem.alloc(90)
        with pytest.raises(OutOfMemoryError) as err:
            mem.alloc(20, tag="activations")
        assert err.value.device == "gpu3"
        assert err.value.tag == "activations"

    def test_unenforced_alloc_records_over_capacity(self):
        mem = MemoryLedger(capacity=100)
        mem.alloc(150, tag="weights", enforce=False)
        assert mem.peak == 150

    def test_overfree_rejected(self):
        mem = MemoryLedger(capacity=100)
        mem.alloc(10, tag="a")
        with pytest.raises(ValueError):
            mem.free(20, tag="a")

    def test_free_wrong_tag_rejected(self):
        mem = MemoryLedger(capacity=100)
        mem.alloc(10, tag="a")
        with pytest.raises(ValueError):
            mem.free(10, tag="b")
