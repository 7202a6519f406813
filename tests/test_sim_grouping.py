"""Lockstep groups against one process per pipeline.

:class:`~repro.schedules.executor.PipelineSimRunner` simulates each run
of consecutive pipelines with equal ``device_map`` rows as one process
per stage (:func:`~repro.schedules.executor.lockstep_groups`).  These
tests run Hypothesis-drawn jobs twice, grouped and with the grouping
patched to singletons (today's one process per pipeline and stage), and
require equal whole-run digests (``tests/test_sim_run_digests.py``):
every result field, span, and device and link utilization step.

The draws cover AFAB, 1F1B, Advance-FP and PipeDream; N = 1..4 on a
straight or permuted placement, mixed within a run; memory from ample
down to below the weights; and device and link faults plus a planned
pipeline crash.  The runner groups pipelines only when the weights plus
every stage's ``stash_bound`` stashes fit each device, and otherwise
simulates each pipeline as a group of its own, so the near-OOM memory
draws test that grouping decision: a run that groups never fails a
stash allocation, and a run that may fail one matches the singleton
run by construction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import FaultEvent, FaultInjector, FaultPlan
from repro.schedules import (
    AFABSchedule,
    AdvanceFPSchedule,
    OneFOneBSchedule,
    PipeDreamSchedule,
    PipelineSimRunner,
    executor,
)
from repro.sim import ClusterSpec, Simulator, make_cluster
from tests.test_sim_run_digests import GIB, _costs, digest

K = 4
STRAIGHT = [0, 1, 2, 3]
PERMUTED = [2, 0, 3, 1]


def _singletons(device_map, isolated=frozenset()):
    return [(p,) for p in range(len(device_map))]


def _run(schedule, rows, micro, iterations, memory, faults, reference):
    sim = Simulator()
    cluster = make_cluster(
        sim, spec=ClusterSpec(nodes=2, gpus_per_node=2, memory_bytes=memory)
    )
    runner = PipelineSimRunner(
        cluster, schedule, _costs(K), num_micro=micro, mb_size=8.0,
        num_pipelines=len(rows), device_map=[list(r) for r in rows],
        with_reference_model=reference,
    )
    if faults:
        FaultInjector(sim, cluster, runner=runner, trace=runner.trace).install(
            FaultPlan(events=list(faults))
        )
    result = runner.run(iterations=iterations, render_timeline=True)
    return digest(result, runner.trace, cluster), sim._seq


def _grouped_and_singleton(monkeypatch, *args):
    grouped = _run(*args)
    with monkeypatch.context() as patch:
        patch.setattr(executor, "lockstep_groups", _singletons)
        singleton = _run(*args)
    return grouped, singleton


schedules = st.one_of(
    st.just(AFABSchedule()),
    st.just(OneFOneBSchedule(versions=1)),
    st.integers(1, 4).map(AdvanceFPSchedule),
    st.just(PipeDreamSchedule()),
)


@st.composite
def faults(draw, pipelines):
    events = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["device_crash", "device_slowdown", "link_degrade", "link_partition"]))
        at = draw(st.floats(0.0, 2.0))
        duration = draw(st.floats(0.05, 1.0))
        if kind.startswith("device"):
            target = draw(st.integers(0, K - 1))
        else:
            src = draw(st.integers(0, K - 1))
            target = (src, draw(st.sampled_from([d for d in range(K) if d != src])))
        factor = draw(st.floats(1.5, 5.0)) if kind in ("device_slowdown", "link_degrade") else 1.0
        events.append(FaultEvent(kind, at, target, duration=duration, factor=factor))
    if draw(st.booleans()):
        events.append(FaultEvent(
            "pipeline_crash", draw(st.floats(0.0, 2.0)), draw(st.integers(0, pipelines - 1))))
    return tuple(events)


@st.composite
def jobs(draw):
    pipelines = draw(st.integers(1, 4))
    rows = tuple(draw(st.sampled_from([STRAIGHT, PERMUTED])) for _ in range(pipelines))
    # Ample memory, or a budget near the OOM edge: the weights take up
    # to ~40 MB per device at N = 4 and each stash 6 MB.
    memory = draw(st.one_of(st.just(8 * GIB), st.integers(12_000_000, 80_000_000)))
    return (
        draw(schedules), rows, draw(st.integers(1, 8)), draw(st.integers(1, 2)),
        memory, draw(faults(pipelines)), draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(job=jobs())
def test_grouped_run_is_bitwise_the_singleton_run(job):
    with pytest.MonkeyPatch.context() as monkeypatch:
        (grouped, _), (singleton, _) = _grouped_and_singleton(monkeypatch, *job)
    assert grouped == singleton


def test_grouping_cuts_heap_pushes(monkeypatch):
    """A straight N=4 chain is one group: it pushes at most 35% of the
    heap entries of one process per pipeline."""
    job = (OneFOneBSchedule(versions=1), (STRAIGHT,) * 4, 8, 2, 8 * GIB, (), True)
    (grouped, grouped_pushes), (singleton, singleton_pushes) = _grouped_and_singleton(
        monkeypatch, *job)
    assert grouped == singleton
    assert grouped_pushes <= 0.35 * singleton_pushes


def _straight_afab(memory, pipelines=4):
    sim = Simulator()
    cluster = make_cluster(
        sim, spec=ClusterSpec(nodes=2, gpus_per_node=2, memory_bytes=memory)
    )
    return PipelineSimRunner(
        cluster, AFABSchedule(), _costs(K), num_micro=8, mb_size=8.0,
        num_pipelines=pipelines,
    )


#: Straight AFAB peaks at its bound on every device: weights 4 x 3 MB plus
#: 4 x 8 stashes of 6 MB.
AFAB_N4_PEAK = 4 * 3_000_000 + 4 * 8 * 6_000_000
SINGLETONS = [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize("memory, groups", [
    (52_000_000, SINGLETONS),  # the oom-edge-n4 budget
    (8 * GIB, [(0, 1, 2, 3)]),
    (AFAB_N4_PEAK, [(0, 1, 2, 3)]),
    (AFAB_N4_PEAK - 1, SINGLETONS),
])
def test_pipelines_group_only_when_no_stash_can_overflow(memory, groups):
    """Four pipelines are one group when the devices hold their stash
    bound, and run apart, failing a stash allocation, one byte short."""
    runner = _straight_afab(memory)
    assert (runner.run(iterations=2).oom is None) == (memory >= AFAB_N4_PEAK)
    assert runner._groups == groups


def test_an_oom_stops_every_pipeline_at_its_next_iteration():
    """Room for 15 of two pipelines' 16 stage-0 stashes: pipeline 1's
    eighth forward fails, pipeline 0 finishes its first iteration and
    stops at the start of the second."""
    runner = _straight_afab(2 * 3_000_000 + 15 * 6_000_000, pipelines=2)
    assert runner.run(iterations=2).oom is not None
    fwd = [sum(s.kind.value == "fwd" and s.pipeline == p for s in runner.trace.spans)
           for p in range(2)]
    assert fwd == [K * 8, K * 7]


def test_grouped_stash_overflow_names_the_group(monkeypatch):
    """A stash bound that under-reports by one lets four pipelines group
    on devices that hold only seven of each stage's eight AFAB stashes;
    the eighth forward's allocation then fails for the whole group, and
    the run says so."""
    bound = AFABSchedule.stash_bound
    monkeypatch.setattr(
        AFABSchedule, "stash_bound", lambda self, k, n, m: bound(self, k, n, m) - 1)
    runner = _straight_afab(AFAB_N4_PEAK - 4 * 6_000_000)
    with pytest.raises(RuntimeError, match=r"lockstep group \(0, 1, 2, 3\) failed a stash"):
        runner.run(iterations=2)


def test_lockstep_groups():
    a, b = STRAIGHT, PERMUTED
    assert executor.lockstep_groups([a, a, b, b]) == [(0, 1), (2, 3)]
    assert executor.lockstep_groups([a, b, a]) == [(0,), (1,), (2,)]
    assert executor.lockstep_groups([a, a, a], isolated={1}) == [(0,), (1,), (2,)]
    assert executor.lockstep_groups([a, a, a], isolated={2}) == [(0, 1), (2,)]


def test_crash_needs_an_isolated_pipeline():
    sim = Simulator()
    cluster = make_cluster(sim, spec=ClusterSpec(nodes=2, gpus_per_node=2))
    runner = PipelineSimRunner(
        cluster, OneFOneBSchedule(versions=1), _costs(K), num_micro=4, mb_size=8.0,
        num_pipelines=3,
    )

    def crash():
        yield sim.timeout(0.1)
        runner.crash_pipeline(1)

    sim.process(crash())
    with pytest.raises(RuntimeError, match=r"pipeline 1:.*isolate_pipeline\(1\)"):
        runner.run()
