"""Minimal discrete-event engine (a compact simpy).

* :class:`Simulator` owns the clock and the event heap.
* :class:`Event` — one-shot; processes wait on events; ``succeed(value)``
  wakes all waiters at the current time.
* :class:`Process` — wraps a generator that yields events; the engine
  resumes the generator with the event's value when it fires.  A process
  is itself an event (fires when the generator returns).
* :class:`AllOf` — barrier over several events.
* :class:`Wake` — a one-shot wake-up one process waits on without an
  :class:`Event`: no callbacks list, and its ``succeed`` resumes the
  process directly.

The engine is deterministic: simultaneous events fire in schedule order
(heap ties broken by a monotone sequence number), so every experiment is
bit-reproducible.

Heap entries
------------
The heap holds ``(time, seq, entry)`` triples.  An entry need not be an
:class:`Event`; the engine reads four things of it:

* ``cancelled`` — true only for a resource's superseded completion tick
  (see below), which is dropped at pop time without touching the clock;
* ``triggered`` — true if it already fired elsewhere; then the pop only
  advances the clock;
* ``value`` — passed to ``succeed``;
* ``succeed(value)`` — called once, at the entry's time.

The simulator's own hot entries use this: a resource's completion tick
and a link's latency gate are ``__slots__`` handles whose ``succeed``
calls the resource directly, and the pipeline executor's transfer tag
is the handle a link completes.  A process waits on an :class:`Event`
or on a :class:`Wake`, which is itself a heap entry.  ``_seq`` counts
every push, live or later superseded.

Superseded ticks
----------------
A :class:`~repro.sim.resource.SharedResource` re-arms its one completion
tick on every membership change and flags the pending one ``cancelled``.
The flagged tick is dropped when it pops, so it never fires and never
moves the clock: :meth:`Simulator.run` ends at the last live entry.  An
entry *succeeded* before its time still moves the clock when it pops.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

__all__ = ["Simulator", "Event", "Process", "AllOf", "Wake"]


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("sim", "triggered", "value", "callbacks", "name")
    cancelled = False

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        # Lazily allocated: most events never get a callback before firing.
        self.callbacks: list[Callable[["Event"], None]] | None = None
        self.name = name

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise RuntimeError(f"event {self.name or id(self)} already triggered")
        self.triggered = True
        self.value = value
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            for cb in callbacks:
                cb(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.triggered else "pending"
        return f"Event({self.name or hex(id(self))}, {state})"


class AllOf(Event):
    """Fires when every constituent event has fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="all_of")
        events = list(events)
        self._remaining = len(events)
        if self._remaining == 0:
            # Fire at the current instant, but via the queue for determinism.
            sim.schedule(0.0, self)
            return
        for ev in events:
            ev.add_callback(self._on_child)

    def _on_child(self, _: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed()


class Wake:
    """A one-shot wake-up for the one process that yields it.

    The process binds itself when it yields the handle (no callbacks
    list, no :meth:`Event.add_callback`), and :meth:`succeed` resumes it
    directly.  A handle fires once: a second ``succeed`` raises, so it
    resumes its process at most once.  Fired before the process yields
    it (a resource can complete work at or under its finish epsilon
    inside the submit), it resumes the process at the yield, as an
    :class:`Event` that already fired does.  It is also a heap entry
    (see the module docstring).
    """

    __slots__ = ("triggered", "resume")
    cancelled = False
    value = None

    def __init__(self) -> None:
        self.triggered = False
        self.resume: Callable[["Wake"], None] | None = None

    def succeed(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError("wake-up already fired")
        self.triggered = True
        resume = self.resume
        if resume is not None:
            resume(self)


class Process(Event):
    """Drives a generator; each yielded Event or Wake suspends the process."""

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = "") -> None:
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._send = gen.send
        self._resume_cb = self._resume  # one bound method for every resume
        # Kick off via the queue so creation order does not leak into
        # same-instant semantics.
        start = Event(sim, name=f"{self.name}.start")
        start.callbacks = [self._resume_cb]
        sim.schedule(0.0, start)

    def _resume(self, fired: Event | Wake) -> None:
        try:
            target = self._send(fired.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if target.__class__ is Wake:
            if target.triggered:
                self._resume(target)
            else:
                target.resume = self._resume_cb
        elif isinstance(target, Event):
            target.add_callback(self._resume_cb)
        else:
            raise TypeError(f"process {self.name} yielded {target!r}, expected Event or Wake")


class Simulator:
    """Event heap + clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def schedule(self, delay: float, event: Event) -> Event:
        """Arrange for ``event.succeed()`` at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        return event

    def timeout(self, delay: float, name: str = "timeout") -> Event:
        return self.schedule(delay, Event(self, name=name))

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------ #

    def run(self, until: float | None = None) -> float:
        """Drain the heap (optionally up to time ``until``, which must not
        be in the past); returns the final clock value."""
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is before the current time {self.now}")
        heap = self._heap
        pop = heapq.heappop
        while heap:
            t = heap[0][0]
            if until is not None and t > until:
                self.now = until
                return self.now
            event = pop(heap)[2]
            if event.cancelled:
                continue  # a superseded tick: dropped without touching the clock
            self.now = t
            if not event.triggered:  # succeeded-early entries only move the clock
                event.succeed(event.value)
        return self.now

    def run_until_process(self, process: Process, limit: float = 1e12) -> float:
        """Run until ``process`` completes; raises if the heap drains first."""
        heap = self._heap
        pop = heapq.heappop
        while not process.triggered:
            if not heap:
                raise RuntimeError(
                    f"deadlock: process {process.name} never completed "
                    f"(no events left at t={self.now})"
                )
            t, _, event = pop(heap)
            if event.cancelled:
                continue
            if t > limit:
                raise RuntimeError(f"simulation exceeded time limit {limit}")
            self.now = t
            if not event.triggered:
                event.succeed(event.value)
        return self.now
