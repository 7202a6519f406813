"""Tuners (§5, Figures 18-19) and the AvgPipe facade end to end."""

import numpy as np
import pytest

from repro.core import AvgPipe, GuidelineTuner, ProfilingTuner, TraversalTuner
from repro.core.predictor import Predictor
from repro.core.profiler import Profiler
from repro.core.simcfg import calibration_for
from repro.core.tuner import default_m_candidates
from repro.baselines import BASELINE_SYSTEMS, choose_baseline_micro, simulate_baseline
from repro.schedules import AdvanceFPSchedule

from tests.test_core_predictor import make_profiler


class TestCandidateGrid:
    def test_default_m_candidates_divide_batch(self):
        for batch in (32, 40, 128):
            for m in default_m_candidates(batch):
                assert batch % m == 0

    def test_includes_extremes(self):
        cands = default_m_candidates(64)
        assert 1 in cands and 64 in cands


class TestProfilingVsTraversal:
    def test_profiling_much_cheaper_than_traversal(self):
        """Figure 18's claim: profiling cost is a small fraction of the
        traversal cost (paper: minutes vs hours)."""
        profiler = make_profiler()
        limit = 8 * 2**30
        prof = ProfilingTuner(profiler, limit).tune(n_candidates=[1, 2, 3])
        trav = TraversalTuner(profiler, limit).tune(n_candidates=[1, 2, 3])
        assert prof.tuning_cost < trav.tuning_cost / 5

    def test_profiling_close_to_traversal_quality(self):
        """Figure 19's claim: the profiled setting's measured per-batch
        time is near the traversal optimum (within 1.35x here)."""
        profiler = make_profiler()
        limit = 8 * 2**30
        prof = ProfilingTuner(profiler, limit).tune(n_candidates=[1, 2, 3])
        trav = TraversalTuner(profiler, limit).tune(n_candidates=[1, 2, 3])
        prof_pb = prof.measured_batch_time / prof.n
        trav_pb = trav.measured_batch_time / trav.n
        assert prof_pb <= trav_pb * 1.35

    def test_traversal_returns_feasible_best(self):
        profiler = make_profiler()
        outcome = TraversalTuner(profiler, 8 * 2**30).tune(
            m_candidates=[4, 8, 16], n_candidates=[1, 2]
        )
        assert (outcome.m, outcome.n) in [(m, n) for m in (4, 8, 16) for n in (1, 2)]
        assert np.isfinite(outcome.measured_batch_time)


class TestGuidelines:
    def test_max_num_sets_micro_batch_size_one(self):
        profiler = make_profiler(batch_size=32)
        outcome = GuidelineTuner(profiler, 8 * 2**30).tune("max-num", n_candidates=[1, 2])
        assert outcome.m == 32

    def test_max_size_sets_single_micro_batch(self):
        profiler = make_profiler(batch_size=32)
        outcome = GuidelineTuner(profiler, 8 * 2**30).tune("max-size", n_candidates=[1, 2])
        assert outcome.m == 1

    def test_unknown_guideline(self):
        with pytest.raises(ValueError):
            GuidelineTuner(make_profiler(), 1e12).tune("max-vibes")


class TestAvgPipeFacade:
    @pytest.fixture(scope="class")
    def gnmt_plan(self):
        system = AvgPipe("gnmt")
        return system, system.plan(n_candidates=[1, 2, 3])

    def test_plan_structure(self, gnmt_plan):
        _, plan = gnmt_plan
        assert plan.workload == "gnmt"
        assert plan.num_micro >= 1
        assert 1 <= plan.num_pipelines <= 3
        assert plan.advance >= 0
        assert plan.tuning_cost > 0

    def test_plan_prefers_parallel_pipelines_on_gnmt(self, gnmt_plan):
        """GNMT leaves GPUs underutilized at N=1; the tuner must choose
        N >= 2 (the paper tunes N=2)."""
        _, plan = gnmt_plan
        assert plan.num_pipelines >= 2

    def test_simulation_respects_memory_limit(self, gnmt_plan):
        system, plan = gnmt_plan
        result = system.simulate(plan, iterations=2)
        assert result.oom is None
        assert max(result.peak_memory) <= plan.memory_limit_bytes

    def test_plan_beats_gpipe_baseline_per_batch(self, gnmt_plan):
        """The headline: tuned AvgPipe beats GPipe per batch on GNMT."""
        system, plan = gnmt_plan
        ours = system.simulate(plan, iterations=2).time_per_batch
        cal = calibration_for("gnmt")
        gpipe = BASELINE_SYSTEMS["gpipe"]
        m = choose_baseline_micro(gpipe, cal)
        theirs = simulate_baseline(gpipe, cal, num_micro=m, iterations=2).time_per_batch
        assert ours < theirs

    def test_trainer_uses_planned_pipelines(self, gnmt_plan):
        system, plan = gnmt_plan
        trainer = system.trainer(plan, max_epochs=1)
        assert trainer.num_pipelines == plan.num_pipelines


_RUN_FIELDS = (
    "batch_time", "total_time", "decomposition", "peak_memory",
    "comm_sent_time", "avg_utilization",
)


@pytest.fixture
def count_run_setting(monkeypatch):
    """A list that grows by one entry per ``Profiler.run_setting`` call."""
    calls = []
    original = Profiler.run_setting

    def counted(self, *args, **kwargs):
        calls.append((args, kwargs))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Profiler, "run_setting", counted)
    return calls


class TestSimulateReusesTheTunersRun:
    """``plan()`` keeps the tuner's simulation of an advance-0 winner and
    ``simulate(plan)`` returns it; the numbers are those of a fresh run."""

    @pytest.fixture(scope="class")
    def plans(self):
        out = {}
        for model in ("gnmt", "bert", "awd"):
            system = AvgPipe(model)
            out[model] = (system, system.plan())
        return out

    @pytest.mark.parametrize("model", ["gnmt", "bert", "awd"])
    def test_simulate_equals_a_fresh_simulation(self, plans, model):
        system, plan = plans[model]
        reused = system.simulate(plan)
        fresh = system.simulate_config(plan.num_micro, plan.num_pipelines, plan.advance)
        for name in _RUN_FIELDS:
            assert getattr(reused, name) == getattr(fresh, name), name

    def test_gnmt_plan_keeps_the_tuners_run(self, plans):
        system, plan = plans["gnmt"]
        assert plan.advance == 0
        assert system.simulate(plan) is plan.measured_run

    @pytest.mark.parametrize("kwargs", [{"iterations": 2}, {"render_timeline": True}])
    def test_other_calls_simulate_fresh(self, plans, count_run_setting, kwargs):
        system, plan = plans["gnmt"]
        result = system.simulate(plan, **kwargs)
        assert result is not plan.measured_run
        assert len(count_run_setting) == 1

    def test_gnmt_plan_and_simulate_run_one_setting_fewer(self, count_run_setting):
        system = AvgPipe("gnmt")
        plan = system.plan()
        system.simulate(plan)
        reused = len(count_run_setting)
        # what simulate(plan) cost before: a fresh run of the same setting
        system.simulate_config(plan.num_micro, plan.num_pipelines, plan.advance)
        assert reused == len(count_run_setting) - 1
        assert system.simulate(plan) is plan.measured_run

    def test_copied_plan_simulates_fresh(self, plans, count_run_setting):
        import dataclasses

        system, plan = plans["gnmt"]
        copy = dataclasses.replace(plan)
        assert copy == plan and copy.measured_run is None
        system.simulate(copy)
        assert len(count_run_setting) == 1


def _uniform_case():
    """(profiler, per-device limit, per-stage limit) on a uniform cluster."""
    limit = 8 * 2**30
    return make_profiler(), limit, limit


def _hetero_case(variant="straggler-node"):
    """The same on a canned hetero variant: awd jointly planned (balanced
    cut + placement) against the variant's per-device memory."""
    cal = calibration_for("awd")
    costs = cal.layer_costs()
    partition, placement = cal.hetero_plan(variant, costs, with_memory_caps=True)
    profiler = cal.profiler(
        AdvanceFPSchedule(2), variant=variant, costs=costs,
        partition=partition, placement=placement,
    )
    caps = list(profiler.cluster_spec.memory_vector())
    return profiler, caps, [caps[d] for d in placement]


class TestProfilingTunerIsTheAnalyticDecision:
    """``ProfilingTuner.tune`` is one profile, Equations 1-8 over the grid
    (``Predictor.best_setting``) and one run of the winner."""

    @pytest.mark.parametrize("case", [_uniform_case, _hetero_case],
                             ids=["uniform", "straggler-node"])
    def test_tune_is_best_setting_then_the_winners_run(self, case):
        profiler, device_limits, stage_limits = case()
        m_candidates = default_m_candidates(profiler.batch_size)
        n_candidates = [1, 2, 3, 4]
        outcome = ProfilingTuner(profiler, device_limits).tune(m_candidates, n_candidates)

        profile = profiler.profile(iterations=4)
        winner, predictions = Predictor(profile).best_setting(
            m_candidates, n_candidates, stage_limits
        )
        assert (outcome.m, outcome.n) == (winner.m, winner.n)
        assert outcome.details == predictions
        assert outcome.tuning_cost == profile.profiling_cost

        run = profiler.run_setting(winner.m, winner.n, iterations=3)
        for name in _RUN_FIELDS:
            assert getattr(outcome.measured_run, name) == getattr(run, name), name
        assert outcome.measured_batch_time == run.batch_time


class TestBaselineHelpers:
    def test_dapple_micro_pinned_near_device_count(self):
        cal = calibration_for("gnmt")
        m = choose_baseline_micro(BASELINE_SYSTEMS["dapple"], cal)
        assert 1 <= m <= cal.num_devices
        assert cal.batch_size % m == 0

    def test_pipedream_oom_on_bert(self):
        cal = calibration_for("bert")
        with pytest.raises(RuntimeError):
            choose_baseline_micro(BASELINE_SYSTEMS["pipedream"], cal)

    def test_data_parallel_runs_without_micro(self):
        cal = calibration_for("awd")
        res = simulate_baseline(BASELINE_SYSTEMS["pytorch"], cal, iterations=2)
        assert np.isfinite(res.batch_time)

    def test_unknown_baseline(self):
        from repro.baselines import baseline_by_name

        with pytest.raises(KeyError):
            baseline_by_name("horovod")
