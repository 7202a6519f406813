"""Profiling-based tuning (§5.2): profile collection and Equations 1-8.

The decisive test: predictions at the profiled setting must reproduce the
profile (identity), and the predictor's *ranking* over candidate settings
must correlate with ground-truth simulation — that is the property the
paper's Figure 19 depends on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor import Predictor
from repro.core.profiler import Profile, Profiler
from repro.schedules import AdvanceFPSchedule, OneFOneBSchedule, StageCosts
from repro.graph import LayerCost
from repro.sim import ClusterSpec

GIB = 2**30


def make_profiler(schedule=None, batch_size=64, k=6):
    costs = [
        LayerCost(f"l{i}", flops_per_sample=2.0e5, activation_bytes_per_sample=2.0e4, param_bytes=500_000)
        for i in range(2 * k)
    ]
    from repro.graph import partition_model

    spec = ClusterSpec(nodes=k // 2, gpus_per_node=2, memory_bytes=8 * GIB)
    partition = partition_model(costs, k, bandwidth_bytes_per_sec=spec.inter_node_bandwidth,
                                flops_per_sec=spec.peak_flops)
    return Profiler(
        layer_costs=costs,
        partition=partition,
        schedule=schedule or OneFOneBSchedule(versions=1),
        cluster_spec=spec,
        batch_size=batch_size,
        with_reference_model=True,
    )


class TestProfileCollection:
    def test_profile_picks_large_m_small_n(self):
        profiler = make_profiler()
        profile = profiler.profile()
        assert profile.n == 1
        assert profile.m >= 8
        assert profile.batch_size % profile.m == 0

    def test_profile_measurements_positive(self):
        profile = make_profiler().profile()
        assert all(t > 0 for t in profile.t_gpu)
        assert all(t >= 0 for t in profile.t_comm_total)
        assert all(m > 0 for m in profile.f_mod)

    @pytest.mark.parametrize("method", ["profile", "run_setting"])
    def test_indivisible_micro_batch_count_rejected(self, method):
        """M must divide the batch for the profiling run too, not only for
        run_setting: 64 / 3 would profile fractional micro-batches."""
        profiler = make_profiler(batch_size=64)
        with pytest.raises(ValueError, match="not divisible by M=3"):
            getattr(profiler, method)(3, 1)

    def test_phi_integral_zero_when_not_scaled(self):
        """phi <= 1 everywhere, so the overflow integral at scale 1 is 0."""
        profile = make_profiler().profile()
        for k in range(profile.num_stages):
            assert profile.phi_integral_over(k, 1.0) == pytest.approx(0.0)

    def test_phi_integral_grows_with_scale(self):
        profile = make_profiler().profile()
        k = profile.num_stages // 2
        assert profile.phi_integral_over(k, 4.0) > 0


def phi_integral_loop(times, values, scale):
    """Eq. 2's overflow integral as the plain loop over knots: the
    sequential sum the array form must reproduce bit for bit."""
    times, values = list(times), list(values)
    total = 0.0
    for t, t_next, value in zip(times, times[1:], values):
        dt = t_next - t
        if dt > 0:
            total += dt * max(scale * value - 1.0, 0.0)
    return total


def _phi_profile(times, values):
    return Profile(
        m=1, n=1, batch_size=1, num_stages=1, t_gpu=[0.0], t_comm_total=[0.0],
        phi_times=[np.asarray(times, dtype=float)],
        phi_values=[np.asarray(values, dtype=float)],
        f_mod=[0], f_ref=[0], f_dat=[0], batch_time=0.0, profiling_cost=0.0,
    )


class TestPhiIntegral:
    @settings(max_examples=200, deadline=None)
    @given(
        knots=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(1, 3), st.floats(0.0, 1.5)),
            min_size=1, max_size=60,
        ),
        scale=st.one_of(st.just(1.0), st.floats(0.05, 20.0)),
    )
    def test_matches_sequential_loop(self, knots, scale):
        # sorted times, some repeated (dt = 0 steps are skipped)
        times, values = [], []
        for t, repeat, value in sorted(knots):
            times += [t] * repeat
            values += [value] * repeat
        got = _phi_profile(times, values).phi_integral_over(0, scale)
        assert got.hex() == phi_integral_loop(times, values, scale).hex()

    @pytest.mark.parametrize("scale", [1.0, 3.7])
    def test_single_knot_is_zero(self, scale):
        # the shape JobPlanner builds: one knot, no step
        assert _phi_profile([0.0], [1.0]).phi_integral_over(0, scale) == 0.0

    def test_profiled_curves_match_sequential_loop(self):
        profile = make_profiler().profile()
        rng = np.random.default_rng(0)
        for k in range(profile.num_stages):
            times, values = profile.phi_times[k], profile.phi_values[k]
            for scale in [1.0, *rng.uniform(0.5, 8.0, size=5)]:
                got = profile.phi_integral_over(k, float(scale))
                want = phi_integral_loop(times.tolist(), values.tolist(), float(scale))
                assert got.hex() == want.hex()


class TestPredictorIdentity:
    def test_identity_at_profiled_setting(self):
        """Predicting (m, n) from a profile at (m, n): Equations 2 and 8
        must return the measured values exactly."""
        profiler = make_profiler()
        profile = profiler.profile()
        pred = Predictor(profile).predict(profile.m, profile.n)
        for k in range(profile.num_stages):
            assert pred.t_gpu[k] == pytest.approx(profile.t_gpu[k], rel=1e-9)
            assert pred.f_total[k] == pytest.approx(
                profile.f_mod[k] + profile.f_dat[k], rel=1e-9
            )

    def test_memory_equation8_scaling(self):
        profile = make_profiler().profile()
        predictor = Predictor(profile)
        double_n = predictor.predict(profile.m, profile.n * 2)
        # Per-pipeline weights and data double with n*; the reference copy
        # does not (the refined Equation 8, DESIGN.md item 4).
        for k in range(profile.num_stages):
            expected = (
                2 * (profile.f_mod[k] - profile.f_ref[k])
                + profile.f_ref[k]
                + 2 * profile.f_dat[k]
            )
            assert double_n.f_total[k] == pytest.approx(expected, rel=1e-9)
        half_m = predictor.predict(profile.m // 2, profile.n)
        for k in range(profile.num_stages):
            # f_mod unchanged, f_dat doubles (micro-batches twice as large).
            expected = profile.f_mod[k] + 2 * profile.f_dat[k]
            assert half_m.f_total[k] == pytest.approx(expected, rel=1e-9)

    def test_compute_equation2_overflow_penalty(self):
        """Doubling pipelines doubles phi; where phi would clip at 100%
        the prediction must add overflow time rather than halve runtime."""
        profile = make_profiler().profile()
        predictor = Predictor(profile)
        base = predictor.predict(profile.m, 1)
        quad = predictor.predict(profile.m, 4)
        for k in range(profile.num_stages):
            # Without clipping, t_gpu would shrink 4x; with overflow it
            # cannot shrink below the volume bound.
            assert quad.t_gpu[k] >= base.t_gpu[k] / 4 - 1e-12

    def test_bubble_recursion_boundary_conditions(self):
        profile = make_profiler().profile()
        pred = Predictor(profile).predict(profile.m, profile.n)
        # Equations 6-7: up-bubble grows downstream, down-bubble upstream.
        K = profile.num_stages
        t_up = [pred.t_bub[k] for k in range(K)]
        assert pred.t_bub[0] > 0 or K == 1  # stage 0 still waits downstream

    def test_identity_holds_at_other_profile_settings(self):
        """The identity is not special to the default profile point."""
        profiler = make_profiler()
        for m, n in [(8, 2), (16, 2)]:
            profile = profiler.profile(m=m, n=n)
            pred = Predictor(profile).predict(m, n)
            for k in range(profile.num_stages):
                assert pred.t_gpu[k] == pytest.approx(profile.t_gpu[k], rel=1e-9)
                assert pred.f_total[k] == pytest.approx(
                    profile.f_mod[k] + profile.f_dat[k], rel=1e-9
                )

    def test_invalid_degrees_rejected(self):
        profile = make_profiler().profile()
        with pytest.raises(ValueError):
            Predictor(profile).predict(0, 1)


class TestPredictorRanking:
    def test_ranking_correlates_with_simulation(self):
        """Spearman-style check: the predictor's ordering of (M, N)
        settings agrees with ground-truth simulation on the clear calls."""
        profiler = make_profiler(schedule=AdvanceFPSchedule(2))
        profile = profiler.profile()
        predictor = Predictor(profile)
        settings = [(8, 1), (8, 2), (16, 1), (16, 2), (32, 2), (4, 1)]
        predicted, measured = [], []
        for m, n in settings:
            predicted.append(predictor.predict(m, n).batch_time)
            res = profiler.run_setting(m, n, iterations=2)
            measured.append(res.batch_time / n)
        pred_rank = np.argsort(np.argsort(predicted))
        meas_rank = np.argsort(np.argsort(measured))
        rho = np.corrcoef(pred_rank, meas_rank)[0, 1]
        assert rho > 0.5, f"rank correlation too weak: {rho} ({predicted} vs {measured})"

    def test_best_setting_respects_memory_limit(self):
        profile = make_profiler().profile()
        predictor = Predictor(profile)
        tight_limit = max(fm + fd for fm, fd in zip(profile.f_mod, profile.f_dat)) * 1.2
        winner, _ = predictor.best_setting([8, 16, 32], [1, 2, 3, 4], tight_limit)
        assert winner.peak_memory <= tight_limit

    def test_no_feasible_setting_raises(self):
        profile = make_profiler().profile()
        with pytest.raises(RuntimeError):
            Predictor(profile).best_setting([8], [1], memory_limit_bytes=1.0)

    def test_empty_candidates_rejected(self):
        profile = make_profiler().profile()
        with pytest.raises(ValueError):
            Predictor(profile).best_setting([], [1], 1e12)
