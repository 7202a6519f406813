"""Superseded resource ticks: the heap's only cancelled entries.

A :class:`SharedResource` re-arms its one completion tick on every
membership change, and a freeze or a capacity change flags the pending
tick ``cancelled`` in place.  The event loop drops a flagged tick when it
pops.  These tests pin what that must keep:

* a superseded tick never fires and never advances the clock, wherever
  it sits relative to live entries, under ``run`` and
  ``run_until_process`` alike;
* a heap holding only superseded ticks drains with the clock parked
  under ``run``, and is a deadlock for ``run_until_process``;
* an entry succeeded early still advances the clock when it pops;
* ``run(until=t)`` with ``t`` in the past is rejected, not a clock rewind.
"""

import pytest

from repro.sim import SharedResource
from repro.sim.events import Event, Simulator


def _named_timeout(sim, delay, name, fired):
    ev = sim.timeout(delay, name=name)
    ev.add_callback(lambda e: fired.append((sim.now, e.name)))
    return ev


def _superseded_task(sim, work):
    """Start ``work`` units on a fresh unit-capacity resource and freeze it
    at once: its completion tick, due at ``work``, is superseded."""
    res = SharedResource(sim, capacity=1.0)
    done = res.execute(work, demand=1.0)
    res.freeze()
    return done


# --------------------------------------------------------------------- #
# superseded ticks among live entries


def test_cancel_ahead_of_earlier_live_event_keeps_order():
    # The superseded tick sits at the *top* of the heap; popping it must
    # not disturb the live entries behind it.
    sim = Simulator()
    fired = []
    done = _superseded_task(sim, 0.5)
    _named_timeout(sim, 1.0, "x", fired)
    _named_timeout(sim, 1.0, "y", fired)
    _named_timeout(sim, 3.0, "z", fired)
    assert sim.run() == 3.0
    assert fired == [(1.0, "x"), (1.0, "y"), (3.0, "z")]
    assert not done.triggered


def test_cancel_inside_same_timestamp_batch():
    # A superseded tick tied at the same instant as live entries, and
    # pushed between them, is skipped without firing.
    sim = Simulator()
    fired = []
    _named_timeout(sim, 1.0, "x", fired)
    done = _superseded_task(sim, 1.0)
    _named_timeout(sim, 1.0, "y", fired)
    assert sim.run() == 1.0
    assert fired == [(1.0, "x"), (1.0, "y")]
    assert not done.triggered


def test_cancelling_everything_drains_with_clock_parked():
    sim = Simulator()
    dones = [_superseded_task(sim, float(i + 1)) for i in range(10)]
    assert sim.run() == 0.0
    assert sim._heap == []
    assert all(not done.triggered for done in dones)


def test_run_clock_ignores_superseded_tick_after_freeze():
    # A frozen resource supersedes its pending completion tick, so run()
    # ends at the last live event (the freeze at t=1), not at the
    # superseded tick's t=10.
    sim = Simulator()
    res = SharedResource(sim, capacity=1.0)
    res.execute(10.0, demand=1.0)
    sim.timeout(1.0).add_callback(lambda _: res.freeze())
    assert sim.run() == 1.0


def test_run_clock_ignores_superseded_tick_after_raised_capacity():
    # Raising capacity at t=1 re-arms the completion at 1 + 9/2 = 5.5 and
    # supersedes the tick at 10: the clock stops at the completion.
    sim = Simulator()
    res = SharedResource(sim, capacity=1.0)
    done = res.execute(10.0, demand=1.0)
    sim.timeout(1.0).add_callback(lambda _: res.set_capacity(2.0))
    assert sim.run() == 5.5
    assert done.triggered


def test_succeeded_early_events_still_advance_the_clock():
    # Only a superseded tick is clock-invisible: an event succeeded before
    # its scheduled pop still advances `now` when its heap entry drains.
    sim = Simulator()
    ev = sim.timeout(5.0, name="late")
    ev.succeed("early")  # fires immediately, entry remains queued
    assert ev.triggered
    assert sim.run() == 5.0  # the queued pop still moves the clock


# --------------------------------------------------------------------- #
# run_until_process


def test_run_until_process_skips_tombstones():
    # Ticks at 10 (superseded at t=1 by a raised capacity) and 5.5
    # (superseded at t=2 by a freeze): the 5.5 one pops and is dropped
    # before the job's live timeout at 7.
    sim = Simulator()
    res = SharedResource(sim, capacity=1.0)
    done = res.execute(10.0, demand=1.0)
    sim.timeout(1.0).add_callback(lambda _: res.set_capacity(2.0))
    sim.timeout(2.0).add_callback(lambda _: res.freeze())
    wakes = []

    def job():
        yield sim.timeout(7.0)
        wakes.append(sim.now)
        return "ok"

    proc = sim.process(job(), name="job")
    assert sim.run_until_process(proc) == 7.0
    assert proc.value == "ok"
    assert wakes == [7.0]
    assert not done.triggered


def test_run_until_process_deadlocks_when_only_tombstones_remain():
    sim = Simulator()
    gate = Event(sim, name="never")

    def job():
        yield gate

    proc = sim.process(job(), name="stuck")
    _superseded_task(sim, 1.0)
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_until_process(proc)
    assert sim.now == 0.0


# --------------------------------------------------------------------- #
# run(until=...)


def test_run_until_in_the_past_raises_and_keeps_the_clock():
    sim = Simulator()
    fired = []
    _named_timeout(sim, 5.0, "a", fired)
    _named_timeout(sim, 10.0, "b", fired)
    assert sim.run(until=6.0) == 6.0
    with pytest.raises(ValueError, match="until"):
        sim.run(until=2.0)
    assert sim.now == 6.0
    assert sim.run() == 10.0
    assert fired == [(5.0, "a"), (10.0, "b")]
