"""Property-based tests on the elastic-averaging framework.

Random update sequences; the invariants:

* the dilution is a contraction — after commit, each model is strictly
  closer to the (pre-commit) reference than its post-optimizer position;
* the reference is translation-equivariant — shifting every model and
  the updates by a constant shifts the whole trajectory by it;
* divergence stays bounded under bounded updates (no drift blow-up).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ElasticAveragingFramework
from repro.models.pipeline_model import ActivationBundle, PipelineLayer, PipelineModel
from repro.nn import Linear


class _Probe(PipelineLayer):
    """Minimal one-layer pipeline model for framework math tests."""

    def __init__(self, dim: int = 4) -> None:
        super().__init__()
        self.fc = Linear(dim, dim, bias=False)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        return bundle

    def flops_per_sample(self) -> float:
        return 1.0

    def activation_floats_per_sample(self) -> float:
        return 1.0


def make_framework(n, alpha=None, seed=0, **kwargs):
    models = [PipelineModel(layers=[_Probe()], name="probe") for _ in range(n)]
    base = models[0].state_dict()
    for m in models[1:]:
        m.load_state_dict(base)
    return ElasticAveragingFramework(models, alpha=alpha, queue_delay=0, **kwargs), models


def apply_updates(framework, models, updates):
    for i, (model, upd) in enumerate(zip(models, updates)):
        before = framework.capture(i)
        for _, p in model.named_parameters():
            p.data = p.data + upd.astype(np.float32)
        framework.commit(i, before)
    framework.end_iteration()


updates_strategy = st.lists(
    st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3), min_size=2, max_size=4
)


@settings(max_examples=30, deadline=None)
@given(updates=updates_strategy, alpha=st.floats(0.05, 0.95))
def test_dilution_is_a_contraction(updates, alpha):
    framework, models = make_framework(len(updates), alpha=alpha)
    ref_before = {k: v.copy() for k, v in framework.reference.items()}
    for i, (model, upd) in enumerate(zip(models, updates)):
        before = framework.capture(i)
        for _, p in model.named_parameters():
            p.data = p.data + np.float32(upd)
        post_opt = {k: v.copy() for k, v in model.state_dict().items()}
        framework.commit(i, before)
        for name, p in model.named_parameters():
            dist_before = np.abs(post_opt[name] - ref_before[name]).max()
            dist_after = np.abs(p.data - ref_before[name]).max()
            assert dist_after <= dist_before * (1 - alpha) + 1e-5


@settings(max_examples=20, deadline=None)
@given(updates=updates_strategy, shift=st.floats(-2.0, 2.0))
def test_translation_equivariance(updates, shift):
    f1, m1 = make_framework(len(updates))
    f2, m2 = make_framework(len(updates))
    for model in m2:
        for _, p in model.named_parameters():
            p.data = p.data + np.float32(shift)
    for name in f2.reference:
        f2.reference[name] = f2.reference[name] + np.float32(shift)
    ups = [np.float32(u) for u in updates]
    apply_updates(f1, m1, ups)
    apply_updates(f2, m2, ups)
    for name in f1.reference:
        assert np.allclose(f2.reference[name], f1.reference[name] + shift, atol=1e-4)
    for a, b in zip(m1, m2):
        sa, sb = a.state_dict(), b.state_dict()
        for k in sa:
            assert np.allclose(sb[k], sa[k] + shift, atol=1e-4)


# ---------------------------------------------------------------------- #
# alpha = 1/N fixed point


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alpha_reciprocal_zero_update_is_a_fixed_point(n):
    """All pipelines equal and no local progress: the averaging round must
    change nothing — the reference exactly (zero accumulated update), the
    models up to dilution round-off ((1-a)x + a*x re-rounds unless a is a
    power of two, so n in {2, 4} is bitwise and n = 3 is within 1 ulp)."""
    framework, models = make_framework(n, alpha=1.0 / n)
    ref0 = {k: v.copy() for k, v in framework.reference.items()}
    states0 = [m.state_dict() for m in models]
    apply_updates(framework, models, [np.float32(0.0)] * n)
    for name in ref0:
        np.testing.assert_array_equal(framework.reference[name], ref0[name])
    for model, s0 in zip(models, states0):
        for k, v in model.state_dict().items():
            if n in (2, 4):  # 1/n exactly representable: dilution is exact
                np.testing.assert_array_equal(v, s0[k])
            else:
                np.testing.assert_allclose(v, s0[k], rtol=2e-7, atol=0)
    assert framework.divergence() < 1e-6


@settings(max_examples=20, deadline=None)
@given(update=st.floats(-0.5, 0.5), rounds=st.integers(1, 6))
def test_identical_updates_keep_pipelines_identical(update, rounds):
    """With alpha = 1/N, pipelines applying the *same* local update stay
    bitwise equal to each other — elastic averaging introduces no
    asymmetry between equally-progressing pipelines."""
    framework, models = make_framework(3, alpha=1.0 / 3)
    for _ in range(rounds):
        apply_updates(framework, models, [np.float32(update)] * 3)
        base = models[0].state_dict()
        for m in models[1:]:
            for k, v in m.state_dict().items():
                np.testing.assert_array_equal(v, base[k])


# ---------------------------------------------------------------------- #
# center-update equivalence with classic EASGD


def test_easgd_center_update_equivalence():
    """One framework round (alpha = lr*rho, sync queue, local SGD) is
    EASGD's round: workers move identically, and the centers move along
    the same accumulated-update direction with the known scales — EASGD's
    center gains alpha * sum(delta) while the mean-normalized reference
    gains (1/N) * sum(delta), so delta_center = N * alpha * delta_ref
    (they would coincide at alpha = 1/N, which EASGD's stability guard
    n * alpha < 1 deliberately excludes)."""
    from repro.optim import EASGD

    n, lr, rho = 3, 0.5, 0.2
    alpha = lr * rho

    framework, fw_models = make_framework(n, alpha=alpha)
    ea_models = [PipelineModel(layers=[_Probe()], name="probe") for _ in range(n)]
    center = PipelineModel(layers=[_Probe()], name="probe")
    base = fw_models[0].state_dict()
    for m in (*ea_models, center):
        m.load_state_dict(base)
    easgd = EASGD(ea_models, center, lr=lr, rho=rho)

    rng = np.random.default_rng(17)
    grads = [
        {name: rng.standard_normal(p.shape).astype(np.float32) for name, p in m.named_parameters()}
        for m in fw_models
    ]
    ref_before = {k: v.copy() for k, v in framework.reference.items()}
    center_before = center.state_dict()

    for i, model in enumerate(fw_models):
        before = framework.capture(i)
        for name, p in model.named_parameters():
            p.data = p.data - lr * grads[i][name]  # EASGD.local_step's update
        framework.commit(i, before)
    framework.end_iteration()

    for i, model in enumerate(ea_models):
        for name, p in model.named_parameters():
            p.grad = grads[i][name]
        easgd.local_step(i)
    easgd.sync()

    for fw_m, ea_m in zip(fw_models, ea_models):
        for k, v in fw_m.state_dict().items():
            np.testing.assert_allclose(v, ea_m.state_dict()[k], atol=1e-6)
    center_after = center.state_dict()
    for name in ref_before:
        delta_ref = framework.reference[name] - ref_before[name]
        delta_center = center_after[name] - center_before[name]
        np.testing.assert_allclose(delta_center, n * alpha * delta_ref, atol=1e-6)


# ---------------------------------------------------------------------- #
# conservation of the weighted mean


@settings(max_examples=20, deadline=None)
@given(updates=updates_strategy, seed=st.integers(0, 100))
def test_one_round_conserves_sum_of_models_plus_reference(updates, seed):
    """With alpha = 1/N and a synchronous queue, one
    averaging round redistributes but does not create mass: starting from
    reference == mean(models) (the constructor's invariant),
    sum(models) + reference is the same before dilution and after the
    reference applied the accumulated update."""
    n = len(updates)
    models = [PipelineModel(layers=[_Probe()], name="probe") for _ in range(n)]
    rng = np.random.default_rng(seed)
    for m in models:  # distinct starting points — conservation must not rely on symmetry
        for _, p in m.named_parameters():
            p.data = rng.standard_normal(p.shape).astype(np.float32)
    framework = ElasticAveragingFramework(models, alpha=1.0 / n, queue_delay=0)

    post_opt_total: dict[str, np.ndarray] = {}
    for i, (model, upd) in enumerate(zip(models, updates)):
        before = framework.capture(i)
        for name, p in model.named_parameters():
            p.data = p.data + np.float32(upd)
            post_opt_total[name] = post_opt_total.get(name, 0.0) + p.data.astype(np.float64)
        framework.commit(i, before)
    ref_before = {k: v.astype(np.float64) for k, v in framework.reference.items()}
    framework.end_iteration()

    for name in ref_before:
        total_before = post_opt_total[name] + ref_before[name]
        total_after = sum(
            dict(m.named_parameters())[name].data.astype(np.float64) for m in models
        ) + framework.reference[name].astype(np.float64)
        np.testing.assert_allclose(total_after, total_before, atol=1e-5)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000))
def test_divergence_bounded_under_bounded_updates(seed):
    rng = np.random.default_rng(seed)
    framework, models = make_framework(3, alpha=1.0 / 3.0)
    divergences = []
    for _ in range(15):
        ups = [rng.uniform(-0.1, 0.1) for _ in models]
        apply_updates(framework, models, [np.float32(u) for u in ups])
        divergences.append(framework.divergence())
    # With |update| <= 0.1 and alpha = 1/3 the stationary divergence is
    # O(|update| / alpha); allow generous slack but forbid blow-up.
    assert max(divergences[5:]) < 1.0


# ---------------------------------------------------------------------- #
# grow path: add_model (the scheduler's grow lever)


def _fresh_probe_model(seed=0):
    rng = np.random.default_rng(seed)
    model = PipelineModel(layers=[_Probe()], name="probe")
    for _, p in model.named_parameters():
        p.data = rng.standard_normal(p.shape).astype(np.float32)
    return model


def test_add_model_seeds_newcomer_from_reference_bitwise():
    """A rejoin restarts the newcomer at the reference exactly,
    so its first dilution is a no-op and its first delta is measured from
    the center."""
    framework, _ = make_framework(2)
    newcomer = _fresh_probe_model(seed=99)  # arbitrary stale weights
    index = framework.add_model(newcomer)
    assert index == 2
    for name, p in newcomer.named_parameters():
        np.testing.assert_array_equal(p.data, framework.reference[name])


def test_add_model_rejects_mismatched_structure():
    framework, _ = make_framework(2)

    class _Other(PipelineLayer):
        def __init__(self):
            super().__init__()
            self.other = Linear(3, 3, bias=False)

        def forward(self, bundle):
            return bundle

        def flops_per_sample(self):
            return 1.0

        def activation_floats_per_sample(self):
            return 1.0

    with pytest.raises(ValueError, match="mismatched parameter structure"):
        framework.add_model(PipelineModel(layers=[_Other()], name="other"))


@pytest.mark.parametrize("n_before, grows", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_post_grow_alpha_is_reciprocal_and_zero_update_fixed_point(n_before, grows):
    """After growing N -> N', an automatic alpha renormalizes to 0.5/N' and
    the all-equal zero-update state is still a fixed point of the round
    (the grow-side mirror of the evict-path test above)."""
    framework, models = make_framework(n_before, alpha=None)
    for _ in range(grows):
        models.append(_fresh_probe_model(seed=7))
        framework.add_model(models[-1])
    n_after = n_before + grows
    assert framework.num_parallel == n_after
    assert framework.alpha == 0.5 / n_after
    ref0 = {k: v.copy() for k, v in framework.reference.items()}
    apply_updates(framework, models, [np.float32(0.0)] * n_after)
    for name in ref0:
        np.testing.assert_array_equal(framework.reference[name], ref0[name])
    assert framework.divergence() < 1e-6


def test_add_model_keeps_explicit_alpha():
    framework, _ = make_framework(2, alpha=0.4)
    framework.add_model(_fresh_probe_model(seed=3))
    assert framework.alpha == pytest.approx(0.4)


def test_add_model_discards_the_inflight_round():
    """Queued deltas were produced under the old N's normalization; a
    membership change must drop them, so the next reference advance needs
    a full round from all N' models."""
    framework, models = make_framework(2)
    before = framework.capture(0)
    for _, p in models[0].named_parameters():
        p.data = p.data + np.float32(0.25)
    framework.commit(0, before)  # one delta in flight
    ref0 = {k: v.copy() for k, v in framework.reference.items()}
    framework.add_model(_fresh_probe_model(seed=11))
    assert framework.end_iteration() is False  # no stale delta survives
    for name in ref0:
        np.testing.assert_array_equal(framework.reference[name], ref0[name])


@settings(max_examples=20, deadline=None)
@given(updates=updates_strategy, grow_update=st.floats(-1.0, 1.0))
def test_post_grow_round_conserves_sum_of_models_plus_reference(updates, grow_update):
    """Conservation (the evict-path invariant above) survives a grow:
    from the all-equal state, admitting a reference-seeded newcomer keeps
    reference == mean(models), so the first full post-grow round still
    only redistributes mass."""
    n_before = len(updates)
    framework, models = make_framework(n_before, alpha=None)
    models.append(_fresh_probe_model(seed=23))
    framework.add_model(models[-1])
    framework.alpha = 1.0 / framework.num_parallel  # the identity holds at 1/N'
    ups = [np.float32(u) for u in updates] + [np.float32(grow_update)]

    post_opt_total: dict[str, np.ndarray] = {}
    for i, (model, upd) in enumerate(zip(models, ups)):
        before = framework.capture(i)
        for name, p in model.named_parameters():
            p.data = p.data + upd
            post_opt_total[name] = post_opt_total.get(name, 0.0) + p.data.astype(np.float64)
        framework.commit(i, before)
    ref_before = {k: v.astype(np.float64) for k, v in framework.reference.items()}
    framework.end_iteration()

    for name in ref_before:
        total_before = post_opt_total[name] + ref_before[name]
        total_after = sum(
            dict(m.named_parameters())[name].data.astype(np.float64) for m in models
        ) + framework.reference[name].astype(np.float64)
        np.testing.assert_allclose(total_after, total_before, atol=1e-5)


def test_add_model_parity_with_rejoin_pipeline_policy():
    """trainer.rejoin_pipeline and the RejoinPipeline recovery policy are
    the same lever: starting from identical trainers, both leave the
    framework in a bitwise-identical state (newcomer seeded from the
    reference, alpha = 0.5/N')."""
    from repro.resilience import RejoinPipeline
    from repro.resilience.chaos import tiny_chaos_spec

    from repro.core.trainer import AvgPipeTrainer

    spec = tiny_chaos_spec()
    t_direct = AvgPipeTrainer(spec, seed=0, num_pipelines=2, max_epochs=1)
    t_policy = AvgPipeTrainer(spec, seed=0, num_pipelines=2, max_epochs=1)

    joined_direct = t_direct.rejoin_pipeline()
    outcome = RejoinPipeline().apply(t_policy)

    assert outcome["joined_as"] == joined_direct
    assert t_policy.num_pipelines == t_direct.num_pipelines == 3
    assert t_policy.framework.alpha == pytest.approx(t_direct.framework.alpha)
    for m_d, m_p in zip(t_direct.framework.models, t_policy.framework.models):
        sd, sp = m_d.state_dict(), m_p.state_dict()
        for k in sd:
            np.testing.assert_array_equal(sp[k], sd[k])
    for name in t_direct.framework.reference:
        np.testing.assert_array_equal(
            t_policy.framework.reference[name], t_direct.framework.reference[name]
        )
