"""The paired A/B harness's arithmetic on synthetic numbers (no runs)."""

import statistics

import pytest

from benchmarks import ab


def test_runs_alternate_abba():
    assert ab.run_order(3) == [(0, "A"), (0, "B"), (1, "B"), (1, "A"), (2, "A"), (2, "B")]
    firsts = [side for (pair, side) in ab.run_order(10)[::2]]
    assert firsts.count("A") == firsts.count("B") == 5


def test_report_prints_medians_and_quartiles():
    values = [float(v) for v in range(10, 20)]
    runs = {side: [{"metrics": {"pass_s": {"value": v * scale}}} for v in values]
            for side, scale in (("A", 1.0), ("B", 0.5))}
    text = ab.report(runs, [{"name": "pass_s", "better": "lower"}])
    # statistics.quantiles(n=4) of 10..19: 11.75 and 17.25 around 14.5.
    assert "14.5 [11.75, 17.25]" in text and "7.25 [5.875, 8.625]" in text
    # B is ahead by 7.25, more than A's quartile distance of 5.5.
    assert "10/10" in text and "0.5000 [0.5000, 0.5000]" in text and "gain" in text
    runs["B"] = [{"metrics": {"pass_s": {"value": v * 0.7}}} for v in values]
    assert "no claim" in ab.report(runs, [{"name": "pass_s", "better": "lower"}])


def test_bootstrap_interval():
    a = [1.0] * 8
    ratio, lo, hi = ab.bootstrap_ratio(a, [0.8] * 8)
    assert ratio == lo == hi == 0.8
    b = [0.70, 0.75, 0.78, 0.80, 0.81, 0.83, 0.90, 1.10]
    ratio, lo, hi = ab.bootstrap_ratio(a, b, seed=3)
    assert ratio == statistics.median(b)
    assert min(b) <= lo < ratio < hi <= max(b)
    assert ab.bootstrap_ratio(a, b, seed=3) == (ratio, lo, hi)  # seeded


@pytest.mark.parametrize("b_of_a, better, expected", [
    (lambda i, x: 0.8 * x, "lower", "gain"),
    (lambda i, x: 0.8 * x if i else 1.2 * x, "lower", "gain"),  # 9 of 10 pairs
    (lambda i, x: 0.8 * x if i > 1 else 1.2 * x, "lower", "no claim"),  # 8 of 10
    (lambda i, x: 0.8 * x if i else x, "lower", "gain"),  # a tie counts for neither
    (lambda i, x: x, "lower", "no claim"),
    (lambda i, x: 1.25 * x, "lower", "loss"),
    (lambda i, x: 1.25 * x, "higher", "gain"),
    (lambda i, x: 0.99 * x, "lower", "no claim"),  # wins every pair, inside A's spread
])
def test_verdict(b_of_a, better, expected):
    a = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    b = [b_of_a(i, x) for i, x in enumerate(a)]
    assert ab.verdict(a, b, better) == expected
