"""Property tests for the metric registry (hypothesis, derandomized).

Pins the registry's documented contracts: counters are monotone and
order-faithful, and histogram quantile estimates lie within one bucket
width of the true empirical quantile.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Counter, Gauge, Histogram, MetricRegistry

#: linear edges, width 0.5, covering the sampled value range [0, 100]:
#: every finite bucket — and the overflow bucket, since values stop at
#: 100 and the last edge is 99.5 — is at most 0.5 wide.
BOUNDS = tuple(0.5 * i for i in range(1, 200))
BUCKET_WIDTH = 0.5

values = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)


def fill(samples) -> Histogram:
    h = Histogram(BOUNDS)
    for v in samples:
        h.observe(v)
    return h


# --------------------------------------------------------------------- #
# counters


@given(st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False), max_size=50))
def test_counter_is_monotone_and_order_faithful(amounts):
    c = Counter()
    running = 0.0
    for a in amounts:
        before = c.value
        c.inc(a)
        assert c.value >= before  # monotone under non-negative increments
        running += a  # same additions, same order => bitwise equal
        assert c.value == running
    assert c.updates == len(amounts)


@given(st.floats(max_value=-1e-12, min_value=-1e9, allow_nan=False))
def test_counter_rejects_negative_increments(amount):
    c = Counter()
    with pytest.raises(ValueError, match=">= 0"):
        c.inc(amount)
    assert c.value == 0.0


# --------------------------------------------------------------------- #
# quantiles


@given(
    st.lists(values, min_size=1, max_size=80),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_quantile_within_one_bucket_width_of_truth(samples, q):
    h = fill(samples)
    estimate = h.quantile(q)
    rank = max(1, math.ceil(q * len(samples)))  # the estimator's rank
    true = sorted(samples)[rank - 1]
    # Estimate and true order statistic share a bucket, so the error is
    # bounded by that bucket's width.
    assert abs(estimate - true) <= BUCKET_WIDTH + 1e-9


@given(st.lists(values, min_size=1, max_size=80))
def test_quantile_is_monotone_in_q(samples):
    h = fill(samples)
    qs = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0]
    estimates = [h.quantile(q) for q in qs]
    assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))


def test_quantile_validates_inputs():
    h = Histogram((1.0,))
    assert math.isnan(h.quantile(0.5))  # empty
    with pytest.raises(ValueError, match="quantile"):
        h.quantile(1.5)


@given(st.lists(values, min_size=1, max_size=80))
def test_summary_agrees_with_numpy_exact_stats(samples):
    h = fill(samples)
    s = h.summary()
    assert s["count"] == len(samples)
    assert s["min"] == min(samples) and s["max"] == max(samples)
    assert s["mean"] == pytest.approx(float(np.mean(np.asarray(samples, dtype=float))))


# --------------------------------------------------------------------- #
# registry semantics


def test_label_order_is_canonicalized():
    reg = MetricRegistry()
    assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)
    assert len(reg) == 1


def test_kind_mismatch_raises():
    reg = MetricRegistry()
    reg.counter("x", device=0)
    with pytest.raises(TypeError, match="already registered"):
        reg.gauge("x", device=0)


def test_gauge_tracks_watermarks():
    g = Gauge()
    for v in (3.0, -1.0, 2.0):
        g.set(v)
    assert (g.value, g.max_value, g.min_value, g.updates) == (2.0, 3.0, -1.0, 3)
