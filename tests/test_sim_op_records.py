"""One trace record and one wake-up per simulated op.

A lockstep group's op is one :attr:`TraceRecorder.records` entry that
stands for every member's span; :meth:`TraceRecorder.time_decomposition_all`
folds the records and :attr:`TraceRecorder.spans` expands them once.  A
stage process waits on a :class:`~repro.sim.events.Wake`, which resumes
it directly, at most once.  These tests hold the fold to the span loop
it replaced, the expansion to one list that keeps in-place edits, and
every wait to exactly one resume, also when a pipeline crash wakes it.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.schedules import (
    AFABSchedule,
    AdvanceFPSchedule,
    OneFOneBSchedule,
    PipelineSimRunner,
)
from repro.sim import ClusterSpec, Simulator, make_cluster
from repro.sim.events import Process, Wake
from repro.sim.trace import EQ1_COMPONENT, SpanKind
from repro.verify.fuzz import check_trace_causality, inject_causality_violation
from tests.test_sim_run_digests import CASES, EXPECTED, _costs, digest

K = 4
STRAIGHT = [0, 1, 2, 3]
PERMUTED = [2, 0, 3, 1]


def _span_fold(spans, num_devices):
    """Equation 1 as one loop over the spans, in span order."""
    out = [{"gpu": 0.0, "com": 0.0, "bub": 0.0, "sync": 0.0} for _ in range(num_devices)]
    for span in spans:
        name = EQ1_COMPONENT.get(span.kind)
        if name is not None and span.device < num_devices:
            out[span.device][name] += span.end - span.start
    return out


def _hexed(rows):
    return [{key: value.hex() for key, value in row.items()} for row in rows]


def _run(schedule, rows, micro=4, iterations=2):
    sim = Simulator()
    cluster = make_cluster(sim, spec=ClusterSpec(nodes=2, gpus_per_node=2))
    runner = PipelineSimRunner(
        cluster, schedule, _costs(K), num_micro=micro, mb_size=8.0,
        num_pipelines=len(rows), device_map=[list(r) for r in rows],
    )
    runner.run(iterations=iterations)
    return runner


schedules = st.one_of(
    st.just(AFABSchedule()),
    st.just(OneFOneBSchedule(versions=1)),
    st.integers(1, 4).map(AdvanceFPSchedule),
)


@settings(max_examples=40, deadline=None)
@given(
    schedule=schedules,
    rows=st.integers(2, 4).flatmap(
        lambda n: st.lists(st.sampled_from([STRAIGHT, PERMUTED]), min_size=n, max_size=n)),
    micro=st.integers(1, 6),
    iterations=st.integers(1, 2),
)
def test_decomposition_folds_the_records_as_the_span_loop_did(schedule, rows, micro, iterations):
    trace = _run(schedule, rows, micro, iterations).trace
    # Grouped members share records: fewer records than spans.
    if any(a == b for a, b in zip(rows, rows[1:])):
        assert len(trace.records) < len(trace.spans)
    spans = trace.spans
    assert trace.spans is spans
    assert _hexed(trace.time_decomposition_all(K)) == _hexed(_span_fold(spans, K))
    # Each member's compute spans carry its own pipeline id.
    assert Counter(s.pipeline for s in trace.compute_spans()) == {
        p: len(trace.compute_spans()) // len(rows) for p in range(len(rows))}


def test_injected_violation_shows_through_compute_spans():
    runner = _run(OneFOneBSchedule(versions=1), [STRAIGHT, STRAIGHT])
    trace = runner.trace
    streams = [runner.schedule.stage_ops(k, K, runner.num_micro) for k in range(K)]
    assert check_trace_causality(trace, streams, runner.num_micro, 2, 2) == []
    note = inject_causality_violation(trace)
    assert "rewound" in note
    assert sum(s.start == -1.0 for s in trace.compute_spans()) == 1
    assert sum(s.start == -1.0 for s in trace.spans) == 1
    assert check_trace_causality(trace, streams, runner.num_micro, 2, 2)


def test_crash_wakes_each_wait_once(monkeypatch):
    """The pipeline crash of the ``fault-pipeline-crash`` digest wakes
    the crashed pipeline's waits on tags; every wait, woken by a tag or
    by the crash, resumes its process exactly once, the crash skips the
    waits that already ended, and the digest holds."""
    resumes: Counter = Counter()
    waits: dict[int, Wake] = {}  # keeps each handle alive, so ids stay unique
    by_crash: list[Wake] = []
    crashing = []

    resume = Process._resume

    def counted_resume(self, fired):
        if isinstance(fired, Wake):
            waits[id(fired)] = fired
            resumes[id(fired)] += 1
        resume(self, fired)

    succeed = Wake.succeed

    def watched_succeed(self, value=None):
        if crashing:
            by_crash.append(self)
        succeed(self, value)

    crash = PipelineSimRunner.crash_pipeline
    ended_before_crash = []

    def watched_crash(self, pipeline):
        group = next(g for g, members in enumerate(self._groups) if pipeline in members)
        ended_before_crash.extend(
            tag.waiter for rows in (self._act_ready[group], self._grad_ready[group])
            for tags in rows for tag in tags
            if tag is not None and tag.waiter is not None and tag.waiter.triggered
        )
        crashing.append(pipeline)
        try:
            crash(self, pipeline)
        finally:
            crashing.pop()

    monkeypatch.setattr(Process, "_resume", counted_resume)
    monkeypatch.setattr(Wake, "succeed", watched_succeed)
    monkeypatch.setattr(PipelineSimRunner, "crash_pipeline", watched_crash)
    assert digest(*CASES["fault-pipeline-crash"]()) == EXPECTED["fault-pipeline-crash"]

    assert by_crash, "the crash woke no wait"
    assert ended_before_crash, "no wait had ended before the crash"
    assert not set(map(id, by_crash)) & set(map(id, ended_before_crash))
    assert all(id(w) in resumes for w in by_crash)
    assert set(resumes.values()) == {1}


def test_wake_fires_once():
    sim = Simulator()
    wake = Wake()
    wake.succeed()
    with pytest.raises(RuntimeError, match="already fired"):
        wake.succeed()
    # Fired before the yield: the process resumes at the yield.
    seen = []

    def proc():
        early = Wake()
        early.succeed()
        yield early
        seen.append(sim.now)

    sim.run_until_process(sim.process(proc()))
    assert seen == [0.0]


def test_registry_records_every_span_as_before():
    """With a registry attached ``record_op`` and ``record_wait`` record
    span by span; the spans and the decomposition are those of a run
    without one."""
    from repro.obs import MetricRegistry

    def spans_of(registry):
        sim = Simulator()
        cluster = make_cluster(sim, spec=ClusterSpec(nodes=2, gpus_per_node=2))
        runner = PipelineSimRunner(
            cluster, AdvanceFPSchedule(2), _costs(K), num_micro=4, mb_size=8.0,
            num_pipelines=3, registry=registry,
        )
        result = runner.run(iterations=2)
        return runner.trace, result.decomposition

    plain, plain_rows = spans_of(None)
    mirrored, mirrored_rows = spans_of(MetricRegistry())
    assert len(mirrored.records) == len(mirrored.spans) > len(plain.records)
    assert mirrored.spans == plain.spans
    assert _hexed(mirrored_rows) == _hexed(plain_rows)
    assert any(s.kind == SpanKind.SYNC for s in plain.spans)
