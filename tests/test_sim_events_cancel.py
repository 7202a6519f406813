"""Event cancellation under lazy tombstoning + heap compaction.

`cancel()` tombstones an entry in place: O(1), clock-invisible, dropped
at pop time.  When tombstones outnumber live entries the heap is rebuilt
between pops.  These tests pin the semantics the tuned queue must keep:

* a cancelled event never fires and never advances the clock, whatever
  its position relative to live entries (cancel-then-pop ordering);
* cancelling *everything* drains to an empty heap with the clock parked;
* compaction changes nothing observable — same firing order, same
  timestamps, same final clock as an untuned queue;
* succeed-early (superseded) entries still advance the clock — only
  ``cancel()`` is invisible;
* cancel of a fired event raises; double-cancel is a no-op.
"""

import pytest

from repro.sim.events import _COMPACT_MIN_TOMBSTONES, Event, Simulator


def _named_timeout(sim, delay, name, fired):
    ev = sim.timeout(delay, name=name)
    ev.add_callback(lambda e: fired.append((sim.now, e.name)))
    return ev


# --------------------------------------------------------------------- #
# cancel-then-pop ordering


def test_cancelled_event_never_fires_and_never_advances_clock():
    sim = Simulator()
    fired = []
    first = _named_timeout(sim, 1.0, "a", fired)
    _named_timeout(sim, 2.0, "b", fired)
    first.cancel()
    assert sim.run() == 2.0
    assert fired == [(2.0, "b")]


def test_cancel_ahead_of_earlier_live_event_keeps_order():
    # The tombstone sits at the *top* of the heap; popping it must not
    # disturb the live entries behind it.
    sim = Simulator()
    fired = []
    doomed = _named_timeout(sim, 0.5, "doomed", fired)
    _named_timeout(sim, 1.0, "x", fired)
    _named_timeout(sim, 1.0, "y", fired)  # same-timestamp batch path
    _named_timeout(sim, 3.0, "z", fired)
    doomed.cancel()
    assert sim.run() == 3.0
    assert fired == [(1.0, "x"), (1.0, "y"), (3.0, "z")]


def test_cancel_inside_same_timestamp_batch():
    # Cancel an entry tied at the same instant as live ones: the batch
    # drain must skip it without re-peeking or firing it.
    sim = Simulator()
    fired = []
    _named_timeout(sim, 1.0, "x", fired)
    mid = _named_timeout(sim, 1.0, "mid", fired)
    _named_timeout(sim, 1.0, "y", fired)
    mid.cancel()
    sim.run()
    assert fired == [(1.0, "x"), (1.0, "y")]


# --------------------------------------------------------------------- #
# empty-heap drain


def test_cancelling_everything_drains_with_clock_parked():
    sim = Simulator()
    events = [sim.timeout(float(i + 1)) for i in range(10)]
    for ev in events:
        ev.cancel()
    assert sim.run() == 0.0
    assert sim._heap == [] or all(e.cancelled for _, _, e in sim._heap)
    assert all(not ev.triggered for ev in events)


def test_mass_cancel_beyond_compaction_threshold_drains_empty():
    # Enough tombstones to trip compaction with nothing live behind them.
    sim = Simulator()
    events = [sim.timeout(float(i)) for i in range(_COMPACT_MIN_TOMBSTONES * 3)]
    for ev in events:
        ev.cancel()
    assert sim.run() == 0.0


# --------------------------------------------------------------------- #
# compaction invisibility


def test_compaction_is_invisible_to_firing_order_and_clock():
    """A cancel-heavy run fires the exact same (time, name) sequence as a
    fresh simulator holding only the surviving events."""

    def build(cancel: bool):
        sim = Simulator()
        fired = []
        doomed = []
        n = _COMPACT_MIN_TOMBSTONES * 4
        for i in range(n):
            ev = _named_timeout(sim, float(i) + 0.5, f"ev{i}", fired)
            if i % 4 != 0:  # 75% cancelled -> compaction triggers mid-run
                doomed.append(ev)
            if not cancel and i % 4 != 0:
                # The control run never schedules the doomed ones at all.
                sim._heap.pop()
                ev.callbacks = None
        if cancel:
            for ev in doomed:
                ev.cancel()
        end = sim.run()
        return end, fired

    end_a, fired_a = build(cancel=True)
    end_b, fired_b = build(cancel=False)
    assert fired_a == fired_b
    assert end_a == end_b


def test_compaction_keeps_interleaved_cancels_correct():
    # Cancels interleaved with live events across many timestamps, driven
    # well past the compaction threshold while the run is in flight.
    sim = Simulator()
    fired = []
    live_times = []
    seq = 0
    for round_no in range(8):
        batch = []
        for i in range(_COMPACT_MIN_TOMBSTONES):
            t = float(seq)
            seq += 1
            batch.append((_named_timeout(sim, t, f"e{seq}", fired), t))
        # cancel all but two per round
        for ev, t in batch[:-2]:
            ev.cancel()
        live_times.extend(t for _, t in batch[-2:])
    sim.run()
    assert [t for t, _ in fired] == sorted(live_times)


def test_succeeded_early_events_still_advance_the_clock():
    # Only cancel() is clock-invisible: an event succeeded before its
    # scheduled pop still advances `now` when its heap entry drains.
    sim = Simulator()
    ev = sim.timeout(5.0, name="late")
    ev.succeed("early")  # fires immediately, entry remains queued
    assert ev.triggered
    assert sim.run() == 5.0  # the queued pop still moves the clock


# --------------------------------------------------------------------- #
# cancel state machine


def test_cancel_of_fired_event_raises():
    sim = Simulator()
    ev = Event(sim, name="done").succeed()
    with pytest.raises(RuntimeError, match="cannot cancel fired"):
        ev.cancel()


def test_succeed_of_cancelled_event_raises():
    sim = Simulator()
    ev = sim.timeout(1.0).cancel()
    with pytest.raises(RuntimeError, match="cancelled"):
        ev.succeed()


def test_double_cancel_is_a_noop_and_counts_one_tombstone():
    sim = Simulator()
    ev = sim.timeout(1.0)
    before = sim._tombstones
    ev.cancel()
    ev.cancel()
    assert sim._tombstones == before + 1
    assert sim.run() == 0.0


def test_run_until_process_skips_tombstones():
    sim = Simulator()
    for i in range(_COMPACT_MIN_TOMBSTONES * 2):
        sim.timeout(0.25 * i).cancel()

    def job():
        yield sim.timeout(7.0)
        return "ok"

    proc = sim.process(job(), name="job")
    assert sim.run_until_process(proc) == 7.0
    assert proc.value == "ok"


def test_run_until_process_deadlocks_when_only_tombstones_remain():
    sim = Simulator()
    gate = Event(sim, name="never")

    def job():
        yield gate

    proc = sim.process(job(), name="stuck")
    sim.timeout(1.0).cancel()
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_until_process(proc)


# --------------------------------------------------------------------- #
# superseded resource ticks


def test_run_clock_ignores_superseded_tick_after_freeze():
    # A frozen resource cancels its pending completion tick, so run()
    # ends at the last live event (the freeze at t=1), not at the
    # superseded tick's t=10 where a popped-and-ignored tick used to
    # leave the clock.
    from repro.sim import SharedResource

    sim = Simulator()
    res = SharedResource(sim, capacity=1.0)
    res.execute(10.0, demand=1.0)
    sim.timeout(1.0).add_callback(lambda _: res.freeze())
    assert sim.run() == 1.0


def test_run_clock_ignores_superseded_tick_after_raised_capacity():
    # Raising capacity at t=1 re-arms the completion at 1 + 9/2 = 5.5 and
    # cancels the tick at 10: the clock stops at the completion.
    from repro.sim import SharedResource

    sim = Simulator()
    res = SharedResource(sim, capacity=1.0)
    done = res.execute(10.0, demand=1.0)
    sim.timeout(1.0).add_callback(lambda _: res.set_capacity(2.0))
    assert sim.run() == 5.5
    assert done.triggered
