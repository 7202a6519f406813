"""Fused-op regression gate: peak allocation and wall time of the fused
autograd kernels against the committed baseline ``BENCH_2.json``.

Each kernel (``lstm_cell``, ``scaled_dot_attention``, ``linear``) runs
forward + backward on seed-0 inputs: one warmup call, five timed calls,
then one call under :mod:`tracemalloc`.  A kernel fails the gate when

* its peak allocation (peak minus the traced bytes at the start of the
  call) exceeds 1.5× the baseline's ``peak_bytes``, or
* its median wall time exceeds 5× the baseline's ``median_s``.

Peak allocation is a deterministic function of the code (array sizes,
not clocks), so it gets the tight bound; the baseline's timings come
from another machine, so wall time only catches order-of-magnitude
blowups.  What the allocation bound catches, measured on Python 3.11
with NumPy 2.4 (the fused kernels peak at 1.002×, 1.000× and 1.000×):

* an un-fused ``lstm_cell`` (two ``linear`` nodes plus gate slices and
  separate ``sigmoid`` / ``tanh`` nodes) peaks at 4,349,976 B, 1.502×
  the baseline, so it fails, by a margin of only 0.2 points;
* an un-fused ``linear`` (``x @ w.T + b``) peaks at 3,152,160 B, 1.200×
  the baseline, and passes: the bound does not catch it.

Wall time depends on the host, so this file is not part of the tier-1
suite.  Run it with ``python -m pytest benchmarks/test_fused_op_gate.py -q``.
"""

import json
import pathlib
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_2.json"
PEAK_LIMIT = 1.5  # × baseline peak_bytes
TIME_LIMIT = 5.0  # × baseline median_s
WARMUP, REPEATS = 1, 5


def _inputs(seed: int):
    rng = np.random.default_rng(seed)

    def randt(*shape: int) -> Tensor:
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    return randt


def lstm_cell(seed: int):
    randt = _inputs(seed)
    T_steps, B, D, H = 16, 32, 64, 64
    x = [randt(B, D) for _ in range(T_steps)]
    wih, whh, bias = randt(4 * H, D), randt(4 * H, H), randt(4 * H)
    h0 = Tensor(np.zeros((B, H), np.float32))
    c0 = Tensor(np.zeros((B, H), np.float32))

    def run() -> float:
        for p in (wih, whh, bias, *x):
            p.grad = None
        h, c = h0, c0
        for t in range(T_steps):
            h, c = F.lstm_cell(x[t], h, c, wih, whh, bias, H)
        loss = h.sum() + c.sum()
        loss.backward()
        return float(loss.item())

    return run


def attention(seed: int):
    randt = _inputs(seed)
    B, Hh, T_seq, dh = 8, 4, 64, 32
    q, k, v = (randt(B, Hh, T_seq, dh) for _ in range(3))
    scale = 1.0 / float(np.sqrt(dh))

    def run() -> float:
        for p in (q, k, v):
            p.grad = None
        loss = F.scaled_dot_attention(q, k, v, scale=scale).sum()
        loss.backward()
        return float(loss.item())

    return run


def linear(seed: int):
    randt = _inputs(seed)
    B, D, O = 256, 512, 512
    x, w, b = randt(B, D), randt(O, D), randt(O)

    def run() -> float:
        for p in (x, w, b):
            p.grad = None
        loss = F.linear(x, w, b).sum()
        loss.backward()
        return float(loss.item())

    return run


def measure(run) -> tuple[float, int]:
    """Median wall time of the timed calls and the traced call's peak bytes."""
    for _ in range(WARMUP):
        run()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(times), max(peak - base, 0)


@pytest.mark.parametrize("kernel", [lstm_cell, attention, linear], ids=lambda k: k.__name__)
def test_fused_op_within_baseline(kernel):
    baseline = {b["name"]: b for b in json.loads(BASELINE.read_text())["benchmarks"]}
    entry = baseline[f"tensor.{kernel.__name__}"]
    median_s, peak_bytes = measure(kernel(seed=0))
    base_peak = entry["alloc"]["peak_bytes"]
    base_median = entry["timing"]["median_s"]
    print(f"{kernel.__name__}: peak {peak_bytes} B ({peak_bytes / base_peak:.3f}x), "
          f"median {median_s * 1e3:.3f} ms ({median_s / base_median:.2f}x)")
    assert peak_bytes <= base_peak * PEAK_LIMIT, (
        f"peak allocation {peak_bytes / base_peak:.3f}x baseline (limit {PEAK_LIMIT}x)"
    )
    assert median_s <= base_median * TIME_LIMIT, (
        f"median wall time {median_s / base_median:.2f}x baseline (limit {TIME_LIMIT}x)"
    )
