"""Generalized processor-sharing resource.

A :class:`SharedResource` has ``capacity`` work-units/second.  Each task
declares ``work`` (units) and ``demand`` — the fraction of capacity the
task can extract when running alone (a GPU kernel with low arithmetic
intensity cannot saturate the device; a network transfer saturates its
link, demand 1.0).  Concurrent tasks are granted

    rate_i = demand_i * capacity                 if sum(demands) <= 1
    rate_i = demand_i / sum(demands) * capacity  otherwise

i.e. under-subscribed tasks coexist for free; over-subscription stretches
everybody proportionally.  This is exactly the utilization model the
paper's predictor assumes in Equation 2 (the ``max(phi - 1, 0)`` overflow
integral), so the simulator and the analytic tuner agree by construction
on *why* parallel pipelines help and when they stop helping.

Completion times are recomputed lazily: whenever membership changes, the
remaining work of every active task is decayed by the elapsed time at the
old rates and a fresh completion tick is scheduled for the new earliest
finisher.  A resource holds at most one live tick: arming a new one (or
going idle / frozen) flags the pending one ``cancelled``, and the event
loop drops it at pop time, so a superseded tick never fires.

One reschedule per instant: a task submitted from inside a completion
this resource is firing (a stage's next kernel, submitted as its last
one finishes) is only appended, with the utilization step a nested
reschedule would have recorded; the firing reschedule then computes
the rates and arms the one tick over the same task list.  A nested
reschedule's rates and tick were always overwritten by the firing one
before time advanced, so the results are the same bits.  Work at or
below the finish epsilon still takes the full path, which completes it
at once; and once such a nested reschedule has replaced the task list,
later submits of that instant take the full path too, because the
firing reschedule finishes on the list it started with.

A task may stand for ``count`` equal tasks submitted back to back (the
pipeline executor's lockstep groups, one task for identical pipelines).
Wherever demands are summed it counts ``count`` times, added one by one
in submit order, and its submit records the utilization steps the
``count`` separate submits would have: the same floats, in fewer tasks.

The sum of demands is kept, not recomputed: the left fold over the task
list, each task added ``count`` times in list order.  An appended task
extends it with exactly the additions a loop over the list would make
next; a removal recomputes it over the kept list.  A reschedule that
finishes on a list a nested one replaced (see above) folds that list
itself.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.sim.events import Event, Simulator

__all__ = ["SharedResource"]

_EPS = 1e-12


def _fold(tasks: list["_ActiveTask"]) -> float:
    """The sum of demands over ``tasks``: each task's demand added
    ``count`` times, in list order."""
    total = 0.0
    for task in tasks:
        for _ in range(task.count):
            total += task.demand
    return total


class _ActiveTask:
    # Plain __slots__ class (not a dataclass): tasks are compared by
    # identity in the scheduler hot path, and field-by-field __eq__ was
    # pure overhead there.
    __slots__ = ("work_left", "demand", "done", "rate", "count")

    def __init__(self, work_left: float, demand: float, done, count: int = 1) -> None:
        self.work_left = work_left
        self.demand = demand
        self.done = done
        self.rate = 0.0
        self.count = count


class _Tick:
    """A resource's completion tick, as a heap entry (see
    :mod:`repro.sim.events`): it fires once, or is superseded."""

    __slots__ = ("resource", "cancelled")
    triggered = False
    value = None

    def __init__(self, resource: "SharedResource") -> None:
        self.resource = resource
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def succeed(self, value=None) -> None:
        resource = self.resource
        resource._tick = None
        resource._reschedule()


class SharedResource:
    """Capacity shared among concurrent tasks in proportion to demand."""

    def __init__(self, sim: Simulator, capacity: float, name: str = "resource") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.nominal_capacity = capacity
        self.name = name
        self._active: list[_ActiveTask] = []
        # _fold(self._active), kept up to date (see module docstring).
        self._demand = 0.0
        self._last_update = 0.0
        # The one pending completion tick (None while idle or frozen).
        self._tick: _Tick | None = None
        self._frozen = False
        # While a reschedule fires completions: the task list it will
        # finish on (see module docstring); None otherwise.
        self._firing: list[_ActiveTask] | None = None
        self._finish_eps = _EPS * (capacity if capacity > 1.0 else 1.0)
        # (time, total_granted_demand) steps for utilization traces.
        self.utilization_steps: list[tuple[float, float]] = [(0.0, 0.0)]

    # ------------------------------------------------------------------ #

    def execute(self, work: float, demand: float, name: str = "task", count: int = 1) -> Event:
        """Submit a task (``count`` equal ones, see the module docstring);
        the returned event fires when it completes."""
        if work < 0:
            raise ValueError(f"negative work {work}")
        if not 0 < demand <= 1.0:
            raise ValueError(f"demand must be in (0, 1], got {demand}")
        done = Event(self.sim, f"{self.name}.{name}")
        self.submit(work, demand, done, count)
        return done

    def submit(self, work: float, demand: float, done, count: int = 1) -> None:
        """Fire ``done`` once ``work`` units have been served at ``demand``
        to each of ``count`` equal tasks: :meth:`execute` without its
        argument checks, for callers that pass valid work and demand.

        ``done`` is an :class:`Event` or any heap entry (see
        :mod:`repro.sim.events`)."""
        if work == 0:
            self.sim.schedule(0.0, done)
            return
        active = self._active
        if self._firing is active and work > self._finish_eps:
            # Deferred to the firing reschedule; the clock has not moved
            # since it settled.  Record the steps nested ones would have.
            self._demand = self._record_submit_steps(demand, count)
            active.append(_ActiveTask(work, demand, done, count))
            return
        if count > 1:
            # The first count - 1 submits' steps; the reschedule records
            # the last one's.
            self._demand = self._record_submit_steps(demand, count - 1)
        active.append(_ActiveTask(work, demand, done, count))
        self._demand += demand
        self._reschedule()

    def _record_submit_steps(self, demand: float, submits: int) -> float:
        """Record the utilization steps of ``submits`` back-to-back submits
        of ``demand`` onto the current task list (see module docstring);
        returns the demand fold extended by them."""
        steps = self.utilization_steps
        last = steps[-1][1]
        now = self.sim.now
        total = self._demand
        frozen = self._frozen
        for _ in range(submits):
            total += demand
            util = 0.0 if frozen else (total if total <= 1.0 else 1.0)
            if abs(util - last) > 1e-12:
                steps.append((now, util))
                last = util
        return total

    @property
    def current_demand(self) -> float:
        """Total granted demand right now (the utilization in [0, 1]);
        0 while frozen, like :attr:`utilization_steps`."""
        if self._frozen:
            return 0.0
        return min(self._demand, 1.0)

    # ------------------------------------------------------------------ #
    # fault hooks (repro.resilience): service-rate changes mid-flight

    @property
    def frozen(self) -> bool:
        return self._frozen

    def set_capacity(self, capacity: float) -> None:
        """Change the service rate; in-flight tasks stretch/shrink from now.

        Used by fault injection to model degraded links and straggling
        devices: remaining work is settled at the old rates first, so a
        capacity change is exact at any instant.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._finish_eps = _EPS * (capacity if capacity > 1.0 else 1.0)
        self._reschedule()

    def freeze(self) -> None:
        """Halt service entirely (a crashed device / severed link).

        Active tasks keep their remaining work but make no progress and
        schedule no completion events until :meth:`unfreeze`.
        """
        if self._frozen:
            return
        self._frozen = True
        self._reschedule()

    def unfreeze(self) -> None:
        """Resume service after :meth:`freeze`; tasks pick up where frozen."""
        if not self._frozen:
            return
        self._frozen = False
        self._reschedule()

    # ------------------------------------------------------------------ #

    def _reschedule(self) -> None:
        """Settle, recompute rates, complete any finished tasks, and arm
        the next tick.

        Settling decays each task's remaining work by the time elapsed at
        its current rate.  That rate is the one the last reschedule set
        (a capacity change or a freeze takes effect here, from now on);
        a task appended since then has rate 0.0 and keeps its work.
        """
        now = self.sim.now
        active = self._active
        dt = now - self._last_update
        self._last_update = now
        if len(active) == 1:
            task = active[0]
            if dt > 0:
                task.work_left -= task.rate * dt
            if task.work_left <= self._finish_eps:
                # The lone task just finished: the general partition below
                # without its lists.  ``succeed()`` may submit new tasks,
                # which land in the fresh ``active`` list.
                self._active = active = []
                self._demand = 0.0
                if not task.done.triggered:
                    firing = self._firing
                    self._firing = active
                    try:
                        task.done.succeed()
                    finally:
                        self._firing = firing
        else:
            if dt > 0:
                for task in active:
                    task.work_left -= task.rate * dt
            threshold = self._finish_eps
            for task in active:
                if task.work_left <= threshold:
                    active = self._complete_finished(threshold)
                    break

        total_demand = self._demand if active is self._active else _fold(active)
        frozen = self._frozen
        steps = self.utilization_steps
        if self._tick is not None:
            self._tick.cancel()  # superseded by this membership change
            self._tick = None
        if len(active) == 1 and not frozen:
            # One unfinished task, of any count: the general path below
            # without its loops, the overwhelmingly common shape on a
            # pipeline compute resource.  Same arithmetic.
            task = active[0]
            util = total_demand if total_demand <= 1.0 else 1.0
            if abs(util - steps[-1][1]) > 1e-12:
                steps.append((now, util))
            scale = 1.0 if total_demand <= 1.0 else 1.0 / total_demand
            task.rate = rate = task.demand * scale * self.capacity
            soonest = task.work_left / rate
        else:
            util = 0.0 if frozen else (total_demand if total_demand <= 1.0 else 1.0)
            if abs(util - steps[-1][1]) > 1e-12 or not active:
                steps.append((now, util))
            if frozen:
                for task in active:
                    task.rate = 0.0
                return  # no completion event until unfreeze
            if not active:
                return
            # Rates and the earliest finisher in one pass.
            scale = 1.0 if total_demand <= 1.0 else 1.0 / total_demand
            capacity = self.capacity
            soonest = math.inf
            for task in active:
                task.rate = rate = task.demand * scale * capacity
                left = task.work_left / rate
                if left < soonest:
                    soonest = left
        # The resource's one live completion tick.
        sim = self.sim
        tick = self._tick = _Tick(self)
        sim._seq += 1
        heapq.heappush(sim._heap, (now + (soonest if soonest >= 0.0 else 0.0), sim._seq, tick))

    def _complete_finished(self, threshold: float) -> list[_ActiveTask]:
        """Drop tasks whose work is (numerically) exhausted and fire their
        events; returns the kept list, which is now ``self._active``."""
        kept: list[_ActiveTask] = []
        finished: list[_ActiveTask] = []
        for task in self._active:
            if task.work_left <= threshold:
                finished.append(task)
            else:
                kept.append(task)
        self._active = kept
        self._demand = _fold(kept)
        firing = self._firing
        self._firing = kept
        try:
            for task in finished:
                if not task.done.triggered:
                    task.done.succeed()
        finally:
            self._firing = firing
        return kept

    # ------------------------------------------------------------------ #

    def utilization_integral(self, horizon: float | None = None) -> float:
        """Integral of the utilization curve (compute volume / capacity).

        The step areas are summed left to right (``np.add.accumulate`` is
        sequential), the order of a plain loop over the steps."""
        end = self.sim.now if horizon is None else horizon
        steps = np.array(self.utilization_steps)
        t = steps[:, 0]
        t_next = np.minimum(np.append(t[1:], end), end)
        live = t_next > t
        if not live.any():
            return 0.0
        areas = (t_next[live] - t[live]) * steps[live, 1]
        return float(np.add.accumulate(areas)[-1])
