"""Chain planner + admission control, and the workload generator."""

import pytest

from repro.sim.cluster import ClusterSpec

from repro.sched import SCHED_SCENARIOS, JobPlanner, generate_jobs
from repro.sched.workload import SchedScenario

MIB = 2**20
GIB = 2**30


def uniform_spec(devices=4, memory=2 * GIB, speeds=None):
    return ClusterSpec(
        nodes=devices, gpus_per_node=1, memory_bytes=memory, device_speed=speeds
    )


# --------------------------------------------------------------------- #
# planner


def test_plan_chain_shape_and_admission_fields():
    planner = JobPlanner(uniform_spec())
    plan = planner.plan_chain("awd", 2, 4, (0, 1), with_reference=True)
    assert plan.num_stages == 2
    assert sorted(plan.stage_devices) == [0, 1]
    assert len(plan.footprints) == 2 and len(plan.caps) == 2
    assert plan.batch_time > 0
    assert all(f > 0 for f in plan.footprints)
    assert plan.fits  # 2 GiB devices trivially hold tiny AWD


def test_plan_chain_requires_matching_grant_size():
    planner = JobPlanner(uniform_spec())
    with pytest.raises(ValueError, match="grant of 3 devices for 2 stages"):
        planner.plan_chain("awd", 2, 4, (0, 1, 2), with_reference=True)


def test_plan_chain_memoizes_on_signature_and_remaps_ids():
    """Two grants with the same speed/memory/adjacency signature share one
    planning result, remapped to the actual device ids."""
    planner = JobPlanner(uniform_spec(devices=6))
    a = planner.plan_chain("bert", 2, 4, (0, 1), with_reference=True)
    b = planner.plan_chain("bert", 2, 4, (4, 5), with_reference=True)
    assert b.devices == (4, 5)
    assert set(b.stage_devices) == {4, 5}
    assert b.batch_time == a.batch_time
    assert b.footprints == a.footprints
    assert b.boundaries == a.boundaries


def test_reference_chain_costs_more_memory():
    """Chain 0 hosts the reference model: its Eq.-8 footprint must exceed
    the same chain planned without the reference copy."""
    planner = JobPlanner(uniform_spec())
    with_ref = planner.plan_chain("bert", 2, 4, (0, 1), with_reference=True)
    without = planner.plan_chain("bert", 2, 4, (0, 1), with_reference=False)
    assert sum(with_ref.footprints) > sum(without.footprints)


def test_admission_rejects_over_capacity():
    """On 96 MiB devices a bert chain's Eq.-8 footprint exceeds the cap;
    the planner must report it as non-fitting, never hide it."""
    planner = JobPlanner(uniform_spec(memory=96 * MIB))
    plan = planner.plan_chain("bert", 2, 4, (0, 1), with_reference=True)
    assert not plan.fits
    assert any(f > c for f, c in zip(plan.footprints, plan.caps))
    assert not planner.best_case_fits("bert", 2, 4)
    # tiny AWD still fits the same devices
    assert planner.best_case_fits("awd", 2, 4)


def test_best_case_fits_needs_enough_devices():
    planner = JobPlanner(uniform_spec(devices=2))
    assert not planner.best_case_fits("awd", 3, 4)


def test_rank_devices_prefers_fast_then_big_then_id():
    spec = ClusterSpec(
        nodes=4,
        gpus_per_node=1,
        memory_bytes=2 * GIB,
        device_speed=(0.5, 1.0, 1.0, 1.0),
        device_memory_bytes=(2 * GIB, GIB, 2 * GIB, 2 * GIB),
    )
    planner = JobPlanner(spec)
    assert planner.rank_devices(range(4)) == [2, 3, 1, 0]


def test_hetero_grant_places_less_work_on_the_slow_device():
    """A half-speed device in the grant routes through the balanced
    partition + placement search; service time must not be worse than
    naively running the uniform cut with the slow device on stage 0."""
    spec = uniform_spec(devices=2, speeds=(1.0, 0.5))
    planner = JobPlanner(spec)
    plan = planner.plan_chain("gnmt", 2, 4, (0, 1), with_reference=True)
    assert plan.fits
    uniform = JobPlanner(uniform_spec(devices=2)).plan_chain(
        "gnmt", 2, 4, (0, 1), with_reference=True
    )
    # the slow device makes the chain slower than a uniform one, but
    # planning kept the slowdown below the naive 2x
    assert uniform.batch_time < plan.batch_time < 2.0 * uniform.batch_time


def test_planner_searches_each_grant_once(monkeypatch):
    """The partition search reads only a grant's speeds and memories, so
    chains that differ in M, the reference copy or node adjacency share
    one search per planner."""
    import repro.core.tuner as tuner

    searches = []
    search = tuner.search_partition_placement

    def counted(*args, **kwargs):
        searches.append(list(kwargs["device_speeds"]))
        return search(*args, **kwargs)

    monkeypatch.setattr(tuner, "search_partition_placement", counted)
    spec = ClusterSpec(
        nodes=2, gpus_per_node=2, memory_bytes=2 * GIB,
        device_speed=(1.0, 0.5, 1.0, 0.5),
    )
    planner = JobPlanner(spec)
    plans = {}
    for grant in ((0, 1), (2, 3), (0, 3), (1, 0)):
        for m in (2, 4):
            for ref in (True, False):
                plans[grant, m, ref] = planner.plan_chain("gnmt", 2, m, grant, ref)
    assert searches == [[1.0, 0.5], [0.5, 1.0]]
    # the reused cut is the one a fresh planner finds for that grant
    fresh = JobPlanner(spec).plan_chain("gnmt", 2, 4, (0, 3), False)
    assert fresh == plans[(0, 3), 4, False]
    assert len(searches) == 3


# --------------------------------------------------------------------- #
# workload generation


def test_generate_jobs_is_deterministic_and_sorted():
    scenario = SCHED_SCENARIOS["smoke"]
    a = generate_jobs(scenario, seed=0)
    b = generate_jobs(scenario, seed=0)
    assert [j.spec for j in a] == [j.spec for j in b]
    times = [j.spec.submit_time for j in a]
    assert times == sorted(times)
    assert len(a) == scenario.num_jobs


def test_generate_jobs_varies_with_seed():
    scenario = SCHED_SCENARIOS["smoke"]
    a = generate_jobs(scenario, seed=0)
    b = generate_jobs(scenario, seed=1)
    assert [j.spec for j in a] != [j.spec for j in b]


def test_generated_micro_counts_divide_the_family_batch():
    from repro.core.simcfg import calibration_for

    for name, scenario in SCHED_SCENARIOS.items():
        for job in generate_jobs(scenario, seed=3):
            cal = calibration_for(job.spec.family)
            assert cal.batch_size % job.spec.num_micro == 0, (name, job.spec)


def test_generated_elastic_ranges_are_valid():
    scenario = SchedScenario(
        name="gen-test",
        description="",
        nodes=2,
        gpus_per_node=2,
        num_jobs=12,
        mean_interarrival=1.0,
    )
    for job in generate_jobs(scenario, seed=5):
        s = job.spec
        assert 1 <= s.min_pipelines <= s.pipelines <= s.max_pipelines
        assert s.weight == float(s.priority + 1)
