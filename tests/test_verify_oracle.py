"""Differential oracle: the pipelined numeric trainer must match a
sequential single-process trainer with explicit weight-version replay —
gradients, post-step weights, optimizer state and the post-averaging
reference — for every registered schedule."""

import numpy as np
import pytest

from repro.core.elastic import ElasticAveragingFramework
from repro.verify.oracle import (
    VERIFIED_SCHEDULES,
    ElasticOracle,
    differential_check,
    make_toy_model,
    toy_batch,
)

TOL = 1e-9


@pytest.mark.parametrize("name", sorted(VERIFIED_SCHEDULES))
@pytest.mark.parametrize("num_stages,num_micro", [(2, 2), (2, 5), (3, 4), (4, 8)])
def test_single_pipeline_matches_oracle(name, num_stages, num_micro):
    report = differential_check(name, num_stages, num_micro, num_pipelines=1, seed=3)
    assert report.ok(TOL), str(report)


@pytest.mark.parametrize("name", sorted(VERIFIED_SCHEDULES))
@pytest.mark.parametrize("num_pipelines", [2, 3])
def test_elastic_pipelines_match_oracle(name, num_pipelines):
    report = differential_check(
        name, 3, 4, num_pipelines=num_pipelines, iterations=3, seed=5
    )
    assert report.ok(TOL), str(report)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_optimizer_state_matches(optimizer):
    report = differential_check(
        "advance_fp", 3, 6, num_pipelines=2, optimizer=optimizer, seed=11
    )
    assert report.max_opt_state_delta <= TOL, str(report)


def test_pipedream_staleness_is_reproduced():
    # PipeDream diverges from the synchronous trajectory (stale weights),
    # yet the version-replay oracle still matches it exactly — the pair
    # of assertions that gives the differential test its teeth.
    stale = differential_check("pipedream", 4, 6, num_pipelines=1, seed=7)
    assert stale.ok(TOL), str(stale)
    sync = differential_check("afab", 4, 6, num_pipelines=1, seed=7)
    assert sync.ok(TOL), str(sync)


def test_loss_agrees_bitwise():
    report = differential_check("1f1b", 3, 5, num_pipelines=1, seed=13)
    assert report.max_loss_delta == 0.0


def test_report_worst_and_str():
    report = differential_check("afab", 2, 2, num_pipelines=1, seed=1)
    assert report.worst() <= TOL
    text = str(report)
    assert "afab" in text and "K=2" in text


# ---------------------------------------------------------------------- #
# the independent elastic oracle against the real framework


def _models(n, seed=0):
    return [make_toy_model(2, dim=4, seed=seed + i) for i in range(n)]


@pytest.mark.parametrize("queue_delay", [0, 1, 2])
def test_elastic_oracle_matches_framework(queue_delay):
    fw_models = _models(3, seed=21)
    or_models = _models(3, seed=21)
    framework = ElasticAveragingFramework(fw_models, alpha=1 / 3, queue_delay=queue_delay)
    oracle = ElasticOracle(or_models, alpha=1 / 3, queue_delay=queue_delay)
    rng = np.random.default_rng(9)
    for _ in range(4):
        for i in range(3):
            step = {
                name: rng.standard_normal(p.shape) * 0.01
                for name, p in fw_models[i].named_parameters()
            }
            before = framework.capture(i)
            o_before = oracle.capture(i)
            for name, p in fw_models[i].named_parameters():
                p.data = p.data + step[name]
            for name, p in or_models[i].named_parameters():
                p.data = p.data + step[name]
            framework.commit(i, before)
            oracle.commit(i, o_before)
        framework.end_iteration()
        oracle.end_iteration()
    for name in framework.reference:
        np.testing.assert_array_equal(framework.reference[name], oracle.reference[name])
    for a, b in zip(fw_models, or_models):
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


def test_toy_batch_deterministic():
    a = toy_batch(3, 2, seed=5)
    b = toy_batch(3, 2, seed=5)
    for mba, mbb in zip(a, b):
        np.testing.assert_array_equal(mba["x"], mbb["x"])
        np.testing.assert_array_equal(mba["y"], mbb["y"])
    c = toy_batch(3, 2, seed=6)
    assert not np.array_equal(a[0]["x"], c[0]["x"])
