"""Simulator executor: the paper's schedule behaviours on uniform stages.

These tests pin the qualitative claims of §4 / Figure 7 on a controlled
synthetic pipeline where they must hold exactly:

* time:   AFAB <= advance-FP <= 1F1B (communication exposure),
* memory: 1F1B <= advance-FP <= AFAB (activation stashing),
* advance-FP degenerates to the two extremes,
* OOM surfaces instead of deadlocking,
* comm/bubble accounting sums sensibly.
"""

import numpy as np
import pytest

from repro.schedules import (
    AFABSchedule,
    AdvanceFPSchedule,
    DataParallelSimRunner,
    OneFOneBSchedule,
    PipeDreamSchedule,
    PipelineSimRunner,
    StageCosts,
)
from repro.sim import ClusterSpec, Simulator, make_cluster

GIB = 2**30


def uniform_costs(k=6, fwd=4.0e6, act=2.0e6, stash=6.0e6, params=1_000_000):
    return StageCosts(
        fwd_flops=(fwd,) * k,
        act_out_bytes=(act,) * k,
        stash_bytes=(stash,) * k,
        param_bytes=(params,) * k,
    )


def run(schedule, costs=None, num_micro=16, mb_size=8.0, pipelines=1, memory=4 * GIB,
        iterations=2, reference=False, **runner_kwargs):
    sim = Simulator()
    cluster = make_cluster(
        sim, 6, spec=ClusterSpec(nodes=3, gpus_per_node=2, memory_bytes=memory)
    )
    runner = PipelineSimRunner(
        cluster,
        schedule,
        costs or uniform_costs(),
        num_micro=num_micro,
        mb_size=mb_size,
        num_pipelines=pipelines,
        with_reference_model=reference,
        **runner_kwargs,
    )
    return runner.run(iterations=iterations)


class TestPaperFigure7Shapes:
    def test_time_ordering_afab_advance_1f1b(self):
        t_afab = run(AFABSchedule()).batch_time
        t_adv = run(AdvanceFPSchedule(4)).batch_time
        t_1f1b = run(OneFOneBSchedule(versions=1)).batch_time
        assert t_afab < t_1f1b
        assert t_afab <= t_adv <= t_1f1b

    def test_memory_ordering_1f1b_advance_afab(self):
        m_afab = max(run(AFABSchedule()).peak_memory)
        m_adv = max(run(AdvanceFPSchedule(4)).peak_memory)
        m_1f1b = max(run(OneFOneBSchedule(versions=1)).peak_memory)
        assert m_1f1b < m_adv < m_afab

    def test_advance_monotone_in_time_and_memory(self):
        times, mems = [], []
        for adv in (0, 2, 4, 8):
            res = run(AdvanceFPSchedule(adv))
            times.append(res.batch_time)
            mems.append(max(res.peak_memory))
        assert times == sorted(times, reverse=True)  # more advance -> faster
        assert mems == sorted(mems)  # more advance -> more memory

    def test_advance_degeneracy_endpoints(self):
        t0 = run(AdvanceFPSchedule(0)).batch_time
        t_1f1b = run(OneFOneBSchedule(versions=1)).batch_time
        assert t0 == pytest.approx(t_1f1b, rel=1e-9)
        t_full = run(AdvanceFPSchedule(16)).batch_time
        t_afab = run(AFABSchedule()).batch_time
        assert t_full == pytest.approx(t_afab, rel=1e-9)

    def test_last_gpu_idle_reduced_by_advance(self):
        idle_1f1b = run(OneFOneBSchedule(versions=1)).last_device_idle
        idle_adv = run(AdvanceFPSchedule(6)).last_device_idle
        assert idle_adv < idle_1f1b

    def test_downstream_stages_stash_less_under_1f1b(self):
        res = run(OneFOneBSchedule(versions=1))
        data = res.data_memory_peak
        assert data[0] > data[-1]  # stage k stashes K-k
        assert data == sorted(data, reverse=True)


class TestParallelPipelines:
    def test_two_pipelines_increase_utilization(self):
        u1 = run(AdvanceFPSchedule(2), pipelines=1).avg_utilization
        u2 = run(AdvanceFPSchedule(2), pipelines=2).avg_utilization
        assert u2 > u1 * 1.3

    def test_per_batch_time_improves_with_second_pipeline(self):
        """The core AvgPipe effect: underutilized devices absorb a second
        pipeline cheaper than running batches serially."""
        r1 = run(AdvanceFPSchedule(2), pipelines=1)
        r2 = run(AdvanceFPSchedule(2), pipelines=2)
        assert r2.time_per_batch < r1.time_per_batch

    def test_diminishing_returns_in_pipeline_count(self):
        gains = []
        prev = run(AdvanceFPSchedule(2), pipelines=1).time_per_batch
        for n in (2, 3, 4):
            cur = run(AdvanceFPSchedule(2), pipelines=n).time_per_batch
            gains.append(prev / cur)
            prev = cur
        assert gains[0] > gains[-1]  # each extra pipeline helps less

    def test_weight_memory_scales_with_pipelines(self):
        r1 = run(AdvanceFPSchedule(0), pipelines=1)
        r2 = run(AdvanceFPSchedule(0), pipelines=2)
        assert r2.weight_memory[0] == pytest.approx(2 * r1.weight_memory[0], rel=0.01)

    def test_reference_model_adds_one_copy(self):
        base = run(AdvanceFPSchedule(0), pipelines=2, reference=False)
        with_ref = run(AdvanceFPSchedule(0), pipelines=2, reference=True)
        per_model = 1_000_000
        assert with_ref.weight_memory[0] - base.weight_memory[0] == per_model


class TestMemoryModel:
    def test_pipedream_versions_inflate_weights(self):
        r_pd = run(PipeDreamSchedule())
        r_sync = run(OneFOneBSchedule(versions=1))
        # Stage 0 holds K=6 versions vs 1.
        assert r_pd.weight_memory[0] > 2 * r_sync.weight_memory[0]

    def test_oom_reported_not_deadlocked(self):
        res = run(AFABSchedule(), memory=64 * 2**20, costs=uniform_costs(stash=64 * 2**20))
        assert res.oom is not None
        assert res.batch_time == float("inf")

    def test_weight_oom_reported(self):
        res = run(AFABSchedule(), memory=2 * 2**20, costs=uniform_costs(params=2**20))
        assert res.oom is not None

    @pytest.mark.parametrize("memory, costs", [
        (2 * 2**20, uniform_costs(params=2**20)),  # the weights overflow
        (64 * 2**20, uniform_costs(stash=64 * 2**20)),  # a stash overflows mid-run
    ])
    def test_oom_decomposition_rows_are_separate_dicts(self, memory, costs):
        res = run(AFABSchedule(), memory=memory, costs=costs)
        assert res.oom is not None
        rows = res.decomposition
        assert len(rows) == 6
        rows[0]["gpu"] = 1.0
        assert all(row == {"gpu": 0.0, "com": 0.0, "bub": 0.0, "sync": 0.0} for row in rows[1:])

    def test_optimizer_state_factor_counts(self):
        adam = run(AdvanceFPSchedule(0), optimizer_state_factor=2.0)
        sgd = run(AdvanceFPSchedule(0), optimizer_state_factor=0.0)
        assert adam.weight_memory[0] == pytest.approx(3 * sgd.weight_memory[0], rel=0.01)


class TestAccounting:
    def test_decomposition_keys_and_positivity(self):
        res = run(OneFOneBSchedule(versions=1))
        for d in res.decomposition:
            assert set(d) == {"gpu", "com", "bub", "sync"}
            assert all(v >= 0 for v in d.values())

    def test_gpu_time_equals_compute_across_schedules(self):
        """T_gpu per device is schedule-independent (same work)."""
        g_afab = [d["gpu"] for d in run(AFABSchedule()).decomposition]
        g_1f1b = [d["gpu"] for d in run(OneFOneBSchedule(versions=1)).decomposition]
        assert g_afab == pytest.approx(g_1f1b, rel=0.05)

    def test_comm_sent_time_positive_for_inner_stages(self):
        res = run(AFABSchedule())
        assert all(c > 0 for c in res.comm_sent_time[:-1])

    def test_first_stage_has_no_bubble_on_forwards(self):
        """Stage 0 never waits for upstream; its idle is grad waits only,
        which AFAB concentrates at the F->B turn."""
        res = run(AFABSchedule())
        assert res.decomposition[0]["bub"] >= 0  # smoke: accounted, finite

    def test_iterations_average_consistently(self):
        r1 = run(OneFOneBSchedule(versions=1), iterations=1)
        r3 = run(OneFOneBSchedule(versions=1), iterations=3)
        # Steady state: per-iteration time within 5%.
        assert r3.batch_time == pytest.approx(r1.batch_time, rel=0.05)

    def test_timeline_renders(self):
        sim = Simulator()
        cluster = make_cluster(sim, 6, spec=ClusterSpec(nodes=3, gpus_per_node=2, memory_bytes=4 * GIB))
        runner = PipelineSimRunner(cluster, AFABSchedule(), uniform_costs(), 8, 8.0)
        res = runner.run(iterations=1, render_timeline=True)
        assert "GPU 1" in res.timeline

    def test_runner_is_one_shot(self):
        """A second run() on one runner used to fold the first run's spans
        into its decomposition (T_gpu and T_bub per batch doubled); it now
        refuses, naming the reuse."""
        sim = Simulator()
        cluster = make_cluster(sim, 6, spec=ClusterSpec(nodes=3, gpus_per_node=2, memory_bytes=4 * GIB))
        runner = PipelineSimRunner(cluster, AdvanceFPSchedule(2), uniform_costs(), 4, 8.0,
                                   num_pipelines=2)
        first = runner.run(iterations=1)
        assert first.decomposition == run(AdvanceFPSchedule(2), num_micro=4, pipelines=2,
                                          iterations=1).decomposition
        with pytest.raises(RuntimeError, match="called twice: a runner is one-shot"):
            runner.run(iterations=1)


class TestDataParallelRunner:
    def _run(self, **kwargs):
        sim = Simulator()
        from repro.graph import LayerCost

        costs = [
            LayerCost(f"l{i}", flops_per_sample=1e5, activation_bytes_per_sample=1e4, param_bytes=200_000)
            for i in range(6)
        ]
        cluster = make_cluster(sim, 6, spec=ClusterSpec(nodes=3, gpus_per_node=2, memory_bytes=4 * GIB))
        return DataParallelSimRunner(cluster, costs, batch_size=48, **kwargs).run(iterations=2)

    def test_runs_and_reports(self):
        res = self._run()
        assert np.isfinite(res.batch_time)
        assert all(c > 0 for c in res.comm_sent_time)

    def test_memory_never_ooms_but_reports_footprint(self):
        sim = Simulator()
        from repro.graph import LayerCost

        costs = [LayerCost("big", 1e5, 1e4, param_bytes=10 * GIB)]
        cluster = make_cluster(sim, 2, spec=ClusterSpec(nodes=1, gpus_per_node=2, memory_bytes=GIB))
        res = DataParallelSimRunner(cluster, costs, batch_size=8).run(iterations=1)
        assert res.oom is None
        assert max(res.peak_memory) > GIB  # over-capacity footprint reported

    def test_allreduce_inefficiency_slows_comm(self):
        fast = self._run(allreduce_inefficiency=1.0)
        slow = self._run(allreduce_inefficiency=4.0)
        assert slow.batch_time > fast.batch_time
