"""The deterministic residual model and learned predictor (repro.tune).

The decisive properties: corrections are exactly the measured/predicted
ratio on seen settings (so a learned ranking of seen configs is a
measured ranking — never worse than analytic), estimation degrades
gracefully (least squares → k-NN → 1.0) and deterministically (no RNG
anywhere), and OOM records veto their setting.
"""

import math

import pytest

from repro.core.predictor import Predictor
from repro.tune.residual import (
    CORRECTION_CLIP,
    MIN_FIT_POINTS,
    LearnedPredictor,
    ResidualModel,
    features,
    select_records,
)
from repro.tune.store import RunStore, tuner_context
from tests.test_core_predictor import make_profiler
from tests.test_tune_store import make_record


class TestFeatures:
    def test_shape_and_determinism(self):
        f = features(4, 2)
        assert f.shape == (6,)
        assert (f == features(4, 2)).all()

    def test_log_quadratic_content(self):
        f = features(4, 2)
        assert f[0] == 1.0 and f[1] == 2.0 and f[2] == 1.0
        assert f[3] == 4.0 and f[4] == 1.0 and f[5] == 2.0


class TestResidualModelExactTier:
    def test_correction_is_measured_over_predicted(self):
        record = make_record(m=2, n=1, measured=0.8)
        model = ResidualModel.fit([record])
        assert model.correction(2, 1) == pytest.approx(0.8 / 0.4)

    def test_repeated_measurements_take_geometric_mean(self):
        records = [
            make_record(m=2, n=1, measured=0.2),
            make_record(m=2, n=1, measured=0.8),
        ]
        model = ResidualModel.fit(records)
        assert model.correction(2, 1) == pytest.approx(
            math.sqrt((0.2 / 0.4) * (0.8 / 0.4))
        )

    def test_same_context_records_shadow_transfer_records(self):
        mine = make_record(m=2, n=1, measured=0.8, context="mine")
        other = make_record(m=2, n=1, measured=0.1, context="other")
        model = ResidualModel.fit([mine, other], context="mine")
        assert model.correction(2, 1) == pytest.approx(0.8 / 0.4)

    def test_oom_records_veto(self):
        model = ResidualModel.fit(
            [make_record(m=8, n=2, measured=None, measured_peak_bytes=None, oom=True)]
        )
        assert model.known_oom(8, 2)
        assert not model.known_oom(2, 1)


class TestResidualModelFallbacks:
    def test_least_squares_above_threshold(self):
        # residual grows with log2(m): LS should extrapolate the trend
        records = [
            make_record(m=m, n=1, measured=0.4 * (1.0 + 0.1 * math.log2(m)))
            for m in (1, 2, 4, 8)
        ]
        model = ResidualModel.fit(records)
        assert model.coef is not None
        assert len(model.points) >= MIN_FIT_POINTS
        predicted = model.correction(16, 1)
        lo, hi = CORRECTION_CLIP
        assert lo <= predicted <= hi
        assert predicted > model.correction(16, 1) * 0.999  # deterministic

    def test_knn_below_threshold(self):
        records = [
            make_record(m=1, n=1, measured=0.4),  # ratio 1.0
            make_record(m=8, n=1, measured=0.8),  # ratio 2.0
        ]
        model = ResidualModel.fit(records)
        assert model.coef is None
        between = model.correction(2, 1)
        assert 1.0 < between < 2.0
        # closer to m=1 than to m=8 in log2 space
        assert between < model.correction(4, 1)

    def test_untrained_model_is_identity(self):
        model = ResidualModel.fit([])
        assert not model.exact and not model.oom
        assert model.correction(4, 2) == 1.0

    def test_corrections_clip(self):
        records = [
            make_record(m=m, n=1, measured=0.4 * 100.0 ** math.log2(max(m, 1)))
            for m in (1, 2, 4)
        ]
        model = ResidualModel.fit(records)
        lo, hi = CORRECTION_CLIP
        assert model.correction(64, 1) <= hi
        assert model.correction(64, 1) >= lo

    def test_fit_is_deterministic(self):
        records = [
            make_record(m=m, n=n, measured=0.3 + 0.05 * m + 0.02 * n)
            for m in (1, 2, 4)
            for n in (1, 2)
        ]
        a = ResidualModel.fit(records)
        b = ResidualModel.fit(list(reversed(records)))
        for m in (1, 2, 4, 8, 16):
            for n in (1, 2, 4):
                assert a.correction(m, n) == b.correction(m, n)


class TestSelectRecords:
    def _context(self):
        return tuner_context(make_profiler(), workload="awd")

    def test_exact_tier_includes_transfer_extras(self):
        ctx = self._context()
        exact = make_record(context=ctx.context, workload="awd", k=6, m=2)
        transfer = make_record(context="elsewhere", workload="awd", k=6, m=4)
        store = RunStore.from_records([exact, transfer])
        records, tier = select_records(store, ctx, "awd")
        assert tier == "exact"
        assert set(records) == {exact, transfer}

    def test_transfer_tier_matches_workload_and_k(self):
        ctx = self._context()
        match = make_record(context="elsewhere", workload="awd", k=6)
        wrong_k = make_record(context="elsewhere", workload="awd", k=2)
        wrong_wl = make_record(context="elsewhere", workload="bert", k=6)
        store = RunStore.from_records([match, wrong_k, wrong_wl])
        records, tier = select_records(store, ctx, "awd")
        assert tier == "transfer"
        assert set(records) == {match}

    def test_no_match_is_none_tier(self):
        ctx = self._context()
        store = RunStore.from_records([make_record(workload="bert", k=2)])
        records, tier = select_records(store, ctx, "awd")
        assert tier == "none" and records == ()


class TestLearnedPredictor:
    def _setup(self):
        profiler = make_profiler()
        profile = profiler.profile()
        return profiler, Predictor(profile)

    def test_empty_store_returns_analytic_winner_object(self):
        profiler, predictor = self._setup()
        ctx = tuner_context(profiler, workload="awd")
        analytic_winner, analytic_preds = predictor.best_setting(
            [1, 2, 4], [1, 2], 64 * 2**30
        )
        decision = LearnedPredictor(
            predictor, store=RunStore(), context=ctx, workload="awd"
        ).best_setting([1, 2, 4], [1, 2], 64 * 2**30)
        assert decision.winner == analytic_winner
        assert decision.predictions == analytic_preds
        assert decision.records_consulted == 0
        assert not decision.residual_applied

    def test_records_rerank_the_grid(self):
        profiler, predictor = self._setup()
        ctx = tuner_context(profiler, workload="awd")
        analytic_winner, _ = predictor.best_setting([1, 2, 4], [1, 2], 64 * 2**30)
        wm, wn = analytic_winner.m, analytic_winner.n
        # record the analytic winner as 10x slower than predicted
        slow = make_record(
            context=ctx.context,
            workload="awd",
            k=ctx.num_stages,
            m=wm,
            n=wn,
            predicted_batch_time=analytic_winner.batch_time,
            measured=analytic_winner.batch_time * 10.0,
        )
        decision = LearnedPredictor(
            predictor, store=RunStore.from_records([slow]), context=ctx, workload="awd"
        ).best_setting([1, 2, 4], [1, 2], 64 * 2**30)
        assert decision.residual_applied
        assert decision.records_consulted == 1
        assert (decision.winner.m, decision.winner.n) != (wm, wn)
        assert decision.analytic_winner == analytic_winner

    def test_oom_record_vetoes_winner(self):
        profiler, predictor = self._setup()
        ctx = tuner_context(profiler, workload="awd")
        analytic_winner, _ = predictor.best_setting([1, 2, 4], [1, 2], 64 * 2**30)
        oom = make_record(
            context=ctx.context,
            workload="awd",
            k=ctx.num_stages,
            m=analytic_winner.m,
            n=analytic_winner.n,
            measured=None,
            measured_peak_bytes=None,
            oom=True,
        )
        decision = LearnedPredictor(
            predictor, store=RunStore.from_records([oom]), context=ctx, workload="awd"
        ).best_setting([1, 2, 4], [1, 2], 64 * 2**30)
        assert (decision.winner.m, decision.winner.n) != (
            analytic_winner.m,
            analytic_winner.n,
        )

    def test_all_vetoed_falls_back_to_analytic(self):
        profiler, predictor = self._setup()
        ctx = tuner_context(profiler, workload="awd")
        records = [
            make_record(
                context=ctx.context,
                workload="awd",
                k=ctx.num_stages,
                m=m,
                n=n,
                measured=None,
                measured_peak_bytes=None,
                oom=True,
            )
            for m in (1, 2, 4)
            for n in (1, 2)
        ]
        decision = LearnedPredictor(
            predictor, store=RunStore.from_records(records), context=ctx, workload="awd"
        ).best_setting([1, 2, 4], [1, 2], 64 * 2**30)
        assert decision.winner == decision.analytic_winner
        assert not decision.residual_applied
