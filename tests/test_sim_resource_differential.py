"""Differential gate: the live resource against the generation counter.

``SharedResource`` keeps one live completion tick, a slotted heap handle,
and ``cancel()``s the one it supersedes; a task submitted from inside one
of its own completions is only appended, and the firing reschedule arms
the one tick; ``Link.transfer`` hands its own ``done`` entry (an event or
any heap handle) to the resource.  All of it replaced code that
rescheduled on every submit, let superseded ticks fire and skipped them
by a generation counter, and forwarded a stream event into ``done``.  A
test-only copy of that code (:class:`_GenerationResource`,
:class:`_GenerationLink`) is driven with the same seeded random traffic as
the live code:

* arrivals at busy and idle resources, on a coarse time grid so that
  arrivals, completions and capacity changes tie;
* zero-work tasks and zero-byte transfers, demands that sum above 1;
* follow-up tasks submitted from a completion callback (re-entrant
  submits to the resource that is completing), including bursts of
  tasks that finish on one tick and each submit a follow-up, and
  follow-ups at or under the finish epsilon;
* raised and lowered ``set_capacity``, ``freeze`` / ``unfreeze``;
* latency-gated and zero-latency links, with transfers completed through
  an event or through a handle that is not an :class:`Event`.

Both must give bitwise-equal (time, name) completion sequences, equal
``utilization_steps`` and equal ``run_until_process`` end clocks, and no
tick the live code fires may be a superseded one.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.sim import SharedResource, Simulator
from repro.sim import resource as resource_module
from repro.sim.events import Event
from repro.sim.link import Link

_EPS = 1e-12


class _ActiveTask:
    __slots__ = ("work_left", "demand", "done", "rate")

    def __init__(self, work_left: float, demand: float, done: Event) -> None:
        self.work_left = work_left
        self.demand = demand
        self.done = done
        self.rate = 0.0


class _GenerationResource:
    """The processor-sharing resource before superseded ticks were
    cancelled: every reschedule arms a tick tagged with a generation
    number, and a tick whose number is stale is popped and ignored."""

    def __init__(self, sim: Simulator, capacity: float, name: str = "resource") -> None:
        self.sim = sim
        self.capacity = capacity
        self.nominal_capacity = capacity
        self.name = name
        self._active: list[_ActiveTask] = []
        self._last_update = 0.0
        self._generation = 0
        self._frozen = False
        self._tick_name = f"{name}.tick"
        self._finish_eps = _EPS * (capacity if capacity > 1.0 else 1.0)
        self._tick_cb = self._on_tick_event
        self.utilization_steps: list[tuple[float, float]] = [(0.0, 0.0)]
        self.stale_ticks = 0  # superseded ticks popped and ignored

    def execute(self, work: float, demand: float, name: str = "task") -> Event:
        done = Event(self.sim, name=f"{self.name}.{name}")
        if work == 0:
            self.sim.schedule(0.0, done)
            return done
        self._settle()
        self._active.append(_ActiveTask(work, demand, done))
        self._reschedule()
        return done

    @property
    def frozen(self) -> bool:
        return self._frozen

    def set_capacity(self, capacity: float) -> None:
        self._settle()
        self.capacity = capacity
        self._finish_eps = _EPS * (capacity if capacity > 1.0 else 1.0)
        self._reschedule()

    def freeze(self) -> None:
        if self._frozen:
            return
        self._settle()
        self._frozen = True
        self._reschedule()

    def unfreeze(self) -> None:
        if not self._frozen:
            return
        self._settle()
        self._frozen = False
        self._reschedule()

    def _settle(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            for task in self._active:
                task.work_left -= task.rate * dt
        self._last_update = now

    def _reschedule(self) -> None:
        active = self._active
        if len(active) == 1:
            task = active[0]
            if task.work_left > self._finish_eps:
                total_demand = task.demand
                if self._frozen:
                    task.rate = 0.0
                    util = 0.0
                else:
                    task.rate = task.demand * self.capacity
                    util = total_demand
                steps = self.utilization_steps
                if abs(util - steps[-1][1]) > 1e-12:
                    steps.append((self.sim.now, util))
                self._generation += 1
                if self._frozen:
                    return
                self._push_tick(task.work_left / task.rate)
                return
        threshold = self._finish_eps
        kept: list[_ActiveTask] = []
        finished: list[_ActiveTask] = []
        for task in active:
            if task.work_left <= threshold:
                finished.append(task)
            else:
                kept.append(task)
        if finished:
            self._active = active = kept
            for task in finished:
                if not task.done.triggered:
                    task.done.succeed()

        total_demand = 0.0
        for task in active:
            total_demand += task.demand
        scale = 1.0 if total_demand <= 1.0 else 1.0 / total_demand
        if self._frozen:
            for task in active:
                task.rate = 0.0
        else:
            for task in active:
                task.rate = task.demand * scale * self.capacity

        util = 0.0 if self._frozen else (total_demand if total_demand <= 1.0 else 1.0)
        if abs(util - self.utilization_steps[-1][1]) > 1e-12 or not active:
            self.utilization_steps.append((self.sim.now, util))

        self._generation += 1
        if not active or self._frozen:
            return
        soonest = active[0].work_left / active[0].rate
        for task in active:
            left = task.work_left / task.rate
            if left < soonest:
                soonest = left
        self._push_tick(soonest if soonest >= 0.0 else 0.0)

    def _push_tick(self, delay: float) -> None:
        sim = self.sim
        tick = Event(sim, name=self._tick_name)
        tick.value = self._generation
        tick.callbacks = [self._tick_cb]
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, tick))

    def _on_tick_event(self, tick: Event) -> None:
        if tick.value != self._generation:
            self.stale_ticks += 1
            return
        self._settle()
        self._reschedule()


class _GenerationLink(Link):
    """``Link`` on the generation-counter resource, with the transfer
    chain it had then: a latency gate whose callback submits a stream
    task and forwards the stream's completion into ``done``."""

    def __init__(self, sim, src, dst, bandwidth, latency, name) -> None:
        super().__init__(sim, src, dst, bandwidth, latency, name=name)
        self.pipe = _GenerationResource(sim, capacity=bandwidth, name=name)

    def transfer(self, nbytes: float, name: str = "xfer", done=None):
        if done is None:
            return self._transfer(nbytes, name)
        # A caller's handle is completed by the delivery event.
        if self.latency == 0.0 and nbytes == 0:
            return self.sim.schedule(0.0, done)
        self._transfer(nbytes, name).add_callback(lambda ev: done.succeed())
        return done

    def _transfer(self, nbytes: float, name: str) -> Event:
        done_name = f"{self.pipe.name}.{name}"
        if self.latency == 0.0:
            if nbytes > 0:
                return self.pipe.execute(nbytes, 1.0, name=name)
            return self.sim.schedule(0.0, Event(self.sim, name=done_name))
        done = Event(self.sim, name=done_name)

        def start(_: Event) -> None:
            stream = self.pipe.execute(nbytes, 1.0, name=name)
            stream.add_callback(lambda ev: done.succeed())

        gate = Event(self.sim, name=done_name + ".latency")
        gate.add_callback(start)
        self.sim.schedule(self.latency, gate)
        return done


# --------------------------------------------------------------------- #
# seeded traffic

_WORKS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1)
# Follow-ups also draw work at or under the finish epsilon (1e-12 times
# the capacity, at least 1e-12) and just over it.
_FOLLOWUP_WORKS = _WORKS + (1e-12, 5e-13, 3e-12)
_DEMANDS = (0.25, 0.5, 0.75, 1.0, 0.3, 0.7)
_CAPACITIES = (0.5, 1.0, 2.0, 4.0)


def _followup(rng: random.Random) -> tuple[float, float]:
    return rng.choice(_FOLLOWUP_WORKS), rng.choice(_DEMANDS)


def _script(seed: int) -> dict:
    """Resources, links and a timed action list, all drawn from ``seed``."""
    rng = random.Random(seed)
    resources = [rng.choice(_CAPACITIES) for _ in range(rng.randint(1, 3))]
    links = [
        (rng.choice((1.0, 2.0, 8.0)), rng.choice((0.0, 0.0, 0.5, 1.0)))
        for _ in range(rng.randint(1, 2))
    ]
    actions = []
    for j in range(rng.randint(20, 60)):
        t = rng.randint(0, 24) * 0.5
        kind = rng.random()
        if kind < 0.45:
            followup = _followup(rng) if rng.random() < 0.3 else None
            actions.append((t, "task", rng.randrange(len(resources)),
                            rng.choice(_WORKS), rng.choice(_DEMANDS), followup))
        elif kind < 0.55:
            # equal tasks that finish on one tick, each submitting a
            # follow-up to the same resource from its completion
            work = rng.choice(_WORKS[1:])
            demand = rng.choice(_DEMANDS)
            idx = rng.randrange(len(resources))
            for _ in range(rng.randint(2, 4)):
                actions.append((t, "task", idx, work, demand, _followup(rng)))
        elif kind < 0.75:
            actions.append((t, rng.choice(("xfer", "handle")), rng.randrange(len(links)),
                            rng.choice((0.0, 1.0, 2.0, 4.0, 0.5))))
        elif kind < 0.88:
            actions.append((t, "capacity", rng.randrange(len(resources)),
                            rng.choice(_CAPACITIES)))
        else:
            # freeze a resource or sever a link, always followed by a
            # release, so every task completes eventually
            target = ("res", rng.randrange(len(resources))) if rng.random() < 0.6 else (
                "link", rng.randrange(len(links)))
            release = t + rng.randint(0, 6) * 0.5
            actions.append((t, "freeze", target))
            actions.append((release, "unfreeze", target))
    return {"resources": resources, "links": links, "actions": actions}


class _Handle:
    """A transfer completion that is not an :class:`Event`: only the
    heap-entry protocol of :mod:`repro.sim.events`."""

    __slots__ = ("name", "on_done")
    cancelled = False
    triggered = False
    value = None

    def __init__(self, name: str, on_done) -> None:
        self.name = name
        self.on_done = on_done

    def succeed(self, value=None) -> None:
        self.on_done(self)


def _drive(script: dict, resource_cls, link_cls) -> dict:
    sim = Simulator()
    resources = [resource_cls(sim, cap, name=f"r{i}") for i, cap in enumerate(script["resources"])]
    links = [
        link_cls(sim, 0, i + 1, bw, lat, name=f"l{i}")
        for i, (bw, lat) in enumerate(script["links"])
    ]
    completions: list[tuple[str, str]] = []
    state = {"outstanding": 0, "issued": False}
    # follow-ups submitted while their resource fired completions, per
    # (time, resource); and those at or under the finish epsilon
    deferred: dict[tuple[float, str], int] = {}
    at_eps = 0
    all_done = Event(sim, name="all_done")

    def finish_one() -> None:
        state["outstanding"] -= 1
        if state["issued"] and state["outstanding"] == 0:
            all_done.succeed()

    def tracker(followup=None, res=None, name=""):
        state["outstanding"] += 1

        def record(ev) -> None:
            nonlocal at_eps
            completions.append((sim.now.hex(), ev.name))
            if followup is not None:
                # re-entrant: submitted from inside the resource's own
                # completion of ``done``
                work, demand = followup
                if getattr(res, "_firing", None) is res._active and work > res._finish_eps:
                    key = (sim.now, res.name)
                    deferred[key] = deferred.get(key, 0) + 1
                at_eps += 0 < work <= res._finish_eps
                res.execute(work, demand, name=name + "+").add_callback(tracker())
            finish_one()

        return record

    def act(action, j: int) -> None:
        kind = action[1]
        if kind == "task":
            _, _, idx, work, demand, followup = action
            res = resources[idx]
            res.execute(work, demand, name=f"t{j}").add_callback(
                tracker(followup, res, f"t{j}")
            )
        elif kind == "xfer":
            _, _, idx, nbytes = action
            links[idx].transfer(nbytes, name=f"x{j}").add_callback(tracker())
        elif kind == "handle":
            _, _, idx, nbytes = action
            links[idx].transfer(nbytes, name=f"h{j}", done=_Handle(f"l{idx}.h{j}", tracker()))
        elif kind == "capacity":
            _, _, idx, cap = action
            resources[idx].set_capacity(cap)
        else:
            which, idx = action[2]
            target = resources[idx] if which == "res" else links[idx].pipe
            target.freeze() if kind == "freeze" else target.unfreeze()

    def driver():
        last = 0.0
        for j, action in sorted(enumerate(script["actions"]), key=lambda p: (p[1][0], p[0])):
            if action[0] > last:
                yield sim.timeout(action[0] - last)
                last = action[0]
            act(action, j)
        state["issued"] = True
        if state["outstanding"]:
            yield all_done

    end = sim.run_until_process(sim.process(driver(), name="driver"))
    return {
        "completions": completions,
        "steps": [
            [(t.hex(), u.hex()) for t, u in res.utilization_steps]
            for res in resources + [link.pipe for link in links]
        ],
        "end": end.hex(),
        "stale_ticks": sum(
            getattr(res, "stale_ticks", 0) for res in resources + [link.pipe for link in links]
        ),
        "deferred": deferred,
        "at_eps": at_eps,
    }


@pytest.fixture
def fired_superseded(monkeypatch):
    """Ticks the live resource fired although a later one replaced them."""
    fired = []
    fire = resource_module._Tick.succeed

    def watched(tick, value=None):
        if tick is not tick.resource._tick:
            fired.append(tick)
        fire(tick, value)

    monkeypatch.setattr(resource_module._Tick, "succeed", watched)
    return fired


@pytest.mark.parametrize("seed", range(40))
def test_cancelled_ticks_match_generation_counter_bitwise(seed, fired_superseded):
    script = _script(seed)
    old = _drive(script, _GenerationResource, _GenerationLink)
    new = _drive(script, SharedResource, Link)
    assert new["completions"] == old["completions"]
    assert new["steps"] == old["steps"]
    assert new["end"] == old["end"]
    assert fired_superseded == []


def test_traffic_exercises_every_branch():
    # The gate is only as strong as its traffic: across the seeds the old
    # code must have skipped superseded ticks, completions must tie and
    # re-enter, several follow-ups must be deferred within one firing,
    # some at or under the finish epsilon, and handles must complete.
    stale = ties = reentrant = handles = bursts = at_eps = 0
    for seed in range(40):
        script = _script(seed)
        result = _drive(script, _GenerationResource, _GenerationLink)
        times = [t for t, _ in result["completions"]]
        stale += result["stale_ticks"]
        ties += len(times) - len(set(times))
        reentrant += sum(name.endswith("+") for _, name in result["completions"])
        handles += sum(".h" in name for _, name in result["completions"])
        live = _drive(script, SharedResource, Link)
        bursts += sum(n >= 2 for n in live["deferred"].values())
        at_eps += live["at_eps"]
    assert min(stale, ties, reentrant, handles, bursts, at_eps) > 0
