"""PipeDream-style pipeline partitioner.

Cuts an ordered layer chain into K contiguous stages.  The objective is
the steady-state pipeline bottleneck: with one micro-batch in flight per
stage slot, throughput is limited by the *slowest* stage, where a stage's
time is its compute plus the time to ship its output activation to the
next stage.  PipeDream solves this with a DP over (prefix, machines);
for a straight chain (no replication, as the paper uses it) the
recurrence is

    T(j, k) = min over i < j of max( T(i, k-1),
                                     comm_k(i) + compute(i, j] / speed_k )

where ``comm_k(i)`` is the activation traffic of the cut after layer i
priced at the bandwidth of the link into stage k.  A uniform cluster is
the degenerate case (unit speeds, one bandwidth, no memory caps).  A
brute-force enumerator in the tests certifies optimality on small
instances.

:func:`search_partition_placement` adds the stage->device placement on
top: it runs the DP for every candidate permutation, visiting one
placement per orbit of interchangeable devices.  Both entry points run
one array kernel, :func:`_dp_kernel`, batched over placements; the
search feeds it every candidate and ``partition_model`` feeds it one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.graph.cost_model import LayerCost

__all__ = [
    "Partition",
    "partition_model",
    "partition_uniform",
    "stage_spans",
    "balanced_bottleneck",
    "stage_memory_bytes",
    "search_partition_placement",
]


#: Placements per batched DP call.  The kernel's temporaries are
#: (chunk, n-K+1, n-K+1) float arrays, so the chunk bounds its memory
#: whatever the orbit count (up to 7! = 5040 placements per search).
_DP_CHUNK = 64


@dataclass(frozen=True)
class Partition:
    """A K-stage cut of an L-layer chain.

    ``boundaries`` has K+1 entries; stage k owns layers
    ``[boundaries[k], boundaries[k+1])``.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 2 or b[0] != 0:
            raise ValueError(f"malformed boundaries {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"boundaries must be strictly increasing: {b}")

    @property
    def num_stages(self) -> int:
        return len(self.boundaries) - 1

    def span(self, stage: int) -> tuple[int, int]:
        return self.boundaries[stage], self.boundaries[stage + 1]


def stage_spans(partition: Partition) -> list[tuple[int, int]]:
    """The [lo, hi) layer span of every stage of a partition."""
    return [partition.span(k) for k in range(partition.num_stages)]


def _layer_memory(
    costs: Sequence[LayerCost],
    layer_memory_bytes: Sequence[float] | None,
) -> list[float]:
    """Resident bytes per layer for the partitioner's memory caps.

    The default charges 3x the parameter bytes (weights + gradients +
    a momentum-style optimizer slot) — the dominant *static* term; the
    activation working set depends on the schedule and is checked by
    :func:`repro.verify.invariants.predict_peak_memory` downstream.
    """
    if layer_memory_bytes is not None:
        if len(layer_memory_bytes) != len(costs):
            raise ValueError(
                f"layer_memory_bytes has {len(layer_memory_bytes)} entries "
                f"for {len(costs)} layers"
            )
        return [float(m) for m in layer_memory_bytes]
    return [3.0 * c.param_bytes for c in costs]


def stage_memory_bytes(
    costs: Sequence[LayerCost],
    boundaries: Sequence[int],
    layer_memory_bytes: Sequence[float] | None = None,
) -> list[float]:
    """Resident bytes of every stage of a candidate partition."""
    mem = _layer_memory(costs, layer_memory_bytes)
    return [
        _sum_left_to_right(mem[boundaries[k] : boundaries[k + 1]])
        for k in range(len(boundaries) - 1)
    ]


def _sum_left_to_right(values: Sequence[float]) -> float:
    """``0.0 + v0 + v1 + ...`` in order.  Builtin ``sum`` is compensated
    on Python >= 3.12, so its float result depends on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def _stage_bandwidths(
    bandwidth_bytes_per_sec: float | Sequence[float], num_stages: int
) -> list[float]:
    """Per-stage input-link bandwidths; a scalar prices every cut alike."""
    if isinstance(bandwidth_bytes_per_sec, (int, float)):
        return [bandwidth_bytes_per_sec] * num_stages
    if len(bandwidth_bytes_per_sec) != num_stages:
        raise ValueError(
            f"per-stage bandwidth needs {num_stages} entries "
            f"(entry k = link into stage k; entry 0 unused), "
            f"got {len(bandwidth_bytes_per_sec)}"
        )
    return list(bandwidth_bytes_per_sec)


def _check_inputs(
    num_layers: int,
    num_stages: int,
    device_speeds: Sequence[float] | None,
    memory_caps: Sequence[float] | None,
) -> None:
    """The length and range checks both entry points share."""
    if num_stages <= 0:
        raise ValueError(f"num_stages must be positive, got {num_stages}")
    if num_stages > num_layers:
        raise ValueError(f"cannot split {num_layers} layers into {num_stages} stages")
    if device_speeds is not None:
        if len(device_speeds) != num_stages:
            raise ValueError(
                f"device_speeds has {len(device_speeds)} entries "
                f"for {num_stages} stages"
            )
        if any(s <= 0 for s in device_speeds):
            raise ValueError(f"device speeds must be positive: {device_speeds}")
    if memory_caps is not None and len(memory_caps) != num_stages:
        raise ValueError(
            f"memory_caps has {len(memory_caps)} entries for {num_stages} stages"
        )


def _chain_arrays(
    costs: Sequence[LayerCost],
    flops_per_sec: float,
    layer_memory_bytes: Sequence[float] | None,
    with_memory: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-layer compute time, output-activation bytes and (when caps
    are given) resident bytes."""
    compute = np.array([c.flops_per_sample / flops_per_sec for c in costs])
    acts = np.array([c.activation_bytes_per_sample for c in costs], dtype=float)
    mem = None
    if with_memory:
        mem = np.array(_layer_memory(costs, layer_memory_bytes))
    return compute, acts, mem


def _span_table(values: np.ndarray) -> np.ndarray:
    """``table[j, i] = prefix[j] - prefix[i]`` over the running sum of
    ``values`` where i < j, else ``inf`` (a stage owns at least one layer)."""
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(len(prefix))
    return np.where(
        idx[None, :] < idx[:, None], prefix[:, None] - prefix[None, :], np.inf
    )


def _dp_kernel(
    compute: np.ndarray,
    acts: np.ndarray,
    mem: np.ndarray | None,
    speeds: np.ndarray,
    bandwidths: np.ndarray,
    caps: np.ndarray | None,
    comm_weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The PipeDream DP for P placements at once.

    ``speeds``, ``bandwidths`` and ``caps`` are (P, K) per-slot views;
    bandwidth entry k prices the link into stage k.  ``dp[k][j]``, the
    best bottleneck of the first j layers in k stages, is one array step
    per k over (placement, j, i), stage k covering layers (i, j]:

        max(dp[k-1][i], (prefix[j] - prefix[i]) / speed_k + comm_k[i])

    in the scalar recurrence's operation order, so every entry is the
    float a scalar loop computes.  Infeasible cuts (i >= j, an ``inf``
    predecessor, a stage over its slot's cap) are ``inf`` entries, and
    ``argmin`` keeps the first minimal i: the strict-``<`` tie-break.
    Since every stage owns a layer, stage k only needs rows j in
    [k, n-K+k] and cut points i in [k-1, n-K+k-1], a square block of
    side n-K+1 on the diagonal (the last stage needs row n alone).

    Returns ``(index, boundaries)``: the placements that admit a
    memory-feasible cut, in order, and their (F, K+1) cuts.
    """
    p_count, k_stages = speeds.shape
    n = len(compute)
    width = n - k_stages + 1
    inf = np.inf
    spans = _span_table(compute)
    mem_spans = None if caps is None else _span_table(mem)
    before = np.full((p_count, width), inf)
    before[:, 0] = 0.0  # dp[0][0]
    choices = []
    for k in range(1, k_stages + 1):
        rows = slice(n, n + 1) if k == k_stages else slice(k, k + width)
        cols = slice(k - 1, k - 1 + width)
        cand = spans[None, rows, cols] / speeds[:, k - 1, None, None]
        if k > 1:  # stage 1 starts at layer 0 and pays no input cut
            cut_bytes = acts[k - 2 : k - 2 + width]  # output of layer i - 1
            comm = comm_weight * (cut_bytes / bandwidths[:, k - 1, None])
            cand += comm[:, None, :]
        if mem_spans is not None:
            over = mem_spans[None, rows, cols] > caps[:, k - 1, None, None]
            cand[over] = inf
        np.maximum(cand, before[:, None, :], out=cand)
        choice = cand.argmin(axis=2)
        before = cand.min(axis=2)
        choices.append(np.where(before < inf, choice + (k - 1), -1))

    index = np.flatnonzero(before[:, 0] < inf)
    boundaries = np.empty((len(index), k_stages + 1), dtype=np.intp)
    boundaries[:, k_stages] = n
    cut = choices[-1][index, 0]
    for k in range(k_stages - 1, 0, -1):
        boundaries[:, k] = cut
        cut = choices[k - 1][index, cut - k]  # stage k's row for j = cut
    boundaries[:, 0] = cut
    return index, boundaries


def partition_model(
    costs: Sequence[LayerCost],
    num_stages: int,
    *,
    device_speeds: Sequence[float] | None = None,
    bandwidth_bytes_per_sec: float | Sequence[float] = 1e9 / 8,
    flops_per_sec: float = 1.0,
    comm_weight: float = 0.5,
    memory_caps: Sequence[float] | None = None,
    layer_memory_bytes: Sequence[float] | None = None,
) -> Partition:
    """Optimal contiguous K-stage partition via the PipeDream DP.

    ``flops_per_sec`` converts the cost model's flops into time so compute
    and communication are in common units; the default treats flops as
    already-normalized time.

    ``comm_weight`` discounts the input-cut communication added to a
    stage's service time: schedules overlap part of each transfer with
    compute, so pricing it fully makes the DP hoard layers on stage 0
    (which pays no input cut) and unbalances compute.  0.5 reflects the
    roughly-half-exposed transfers the simulator shows for 1F1B.  A
    stage's service time is its compute plus that (receive) cut, summed
    as PipeDream's planner does; this also breaks ties toward balanced
    compute when a slow interconnect would otherwise make every cut
    look equal.

    Three inputs describe unequal devices (BaPipe, arXiv:2012.12544):

    * ``device_speeds[k]`` divides stage k's compute time, so a slow
      device is handed proportionally fewer layers (default: all 1.0,
      and IEEE ``x / 1.0`` is exact);
    * ``bandwidth_bytes_per_sec`` may be per-stage: entry k is the
      bandwidth of the link *into* stage k (entry 0 is unused since
      stage 0 pays no input cut);
    * ``memory_caps[k]`` bounds the resident bytes of stage k
      (:func:`stage_memory_bytes`); candidates that overflow a cap are
      infeasible rather than merely expensive.
    """
    _check_inputs(len(costs), num_stages, device_speeds, memory_caps)
    speeds = [1.0] * num_stages if device_speeds is None else device_speeds
    bandwidths = _stage_bandwidths(bandwidth_bytes_per_sec, num_stages)
    compute, acts, mem = _chain_arrays(
        costs, flops_per_sec, layer_memory_bytes, memory_caps is not None
    )
    index, boundaries = _dp_kernel(
        compute,
        acts,
        mem,
        np.array([speeds], dtype=float),
        np.array([bandwidths], dtype=float),
        None if memory_caps is None else np.array([memory_caps], dtype=float),
        comm_weight,
    )
    if not len(index):
        raise RuntimeError(
            "partition DP found no feasible cut "
            "(memory caps too tight for a contiguous K-stage split)"
        )
    return Partition(boundaries=tuple(boundaries[0].tolist()))


def balanced_bottleneck(
    costs: Sequence[LayerCost],
    boundaries: Sequence[int],
    *,
    device_speeds: Sequence[float] | None = None,
    bandwidth_bytes_per_sec: float | Sequence[float] = 1e9 / 8,
    flops_per_sec: float = 1.0,
    comm_weight: float = 0.5,
) -> float:
    """Max per-stage service time of a candidate partition under the
    same cost model :func:`partition_model` optimizes."""
    k_stages = len(boundaries) - 1
    bandwidths = _stage_bandwidths(bandwidth_bytes_per_sec, k_stages)
    worst = 0.0
    for k in range(k_stages):
        lo, hi = boundaries[k], boundaries[k + 1]
        stage_compute = _sum_left_to_right(
            [c.flops_per_sample / flops_per_sec for c in costs[lo:hi]]
        )
        if device_speeds is not None:
            stage_compute = stage_compute / device_speeds[k]
        cut_comm = 0.0
        if k > 0:
            cut_comm = comm_weight * (
                costs[lo - 1].activation_bytes_per_sample / bandwidths[k]
            )
        worst = max(worst, stage_compute + cut_comm)
    return worst


def _segment_sums(compute: np.ndarray) -> np.ndarray:
    """``table[lo, t]``: the sum of ``compute[lo : lo + t]`` taken left
    to right from 0.0, :func:`balanced_bottleneck`'s order.
    ``add.accumulate`` runs sequentially along its axis."""
    n = len(compute)
    padded = np.concatenate([[0.0], compute, np.zeros(n)])
    terms = padded[np.arange(n)[:, None] + np.arange(n + 1)[None, :]]
    terms[:, 0] = 0.0  # padded[lo + t] is compute[lo + t - 1] for t >= 1
    return np.add.accumulate(terms, axis=1)


def _bottlenecks(
    segments: np.ndarray,
    acts: np.ndarray,
    boundaries: np.ndarray,
    speeds: np.ndarray,
    bandwidths: np.ndarray,
    comm_weight: float,
) -> np.ndarray:
    """:func:`balanced_bottleneck` of F cuts, each under its own slots."""
    lo, hi = boundaries[:, :-1], boundaries[:, 1:]
    cut = comm_weight * (acts[lo - 1] / bandwidths)
    cut[:, 0] = 0.0  # stage 0 pays no input cut
    return (segments[lo, hi - lo] / speeds + cut).max(axis=1)


def _device_groups(
    device_speeds: Sequence[float],
    bandwidth_matrix: Sequence[Sequence[float]],
    memory_caps: Sequence[float] | None,
) -> list[int]:
    """Group label (its smallest member) of every device.

    Devices a and b are interchangeable when swapping their labels
    changes nothing the DP reads: equal speed, equal cap (when caps are
    given) and every off-diagonal link bandwidth preserved.  Such swaps
    compose, so interchangeability is an equivalence relation.
    """
    d = len(device_speeds)

    def swapped(x: int, a: int, b: int) -> int:
        return b if x == a else a if x == b else x

    def interchangeable(a: int, b: int) -> bool:
        if device_speeds[a] != device_speeds[b]:
            return False
        if memory_caps is not None and memory_caps[a] != memory_caps[b]:
            return False
        return all(
            bandwidth_matrix[swapped(i, a, b)][swapped(j, a, b)]
            == bandwidth_matrix[i][j]
            for i in range(d)
            for j in range(d)
            if i != j
        )

    group = list(range(d))
    for b in range(d):
        for a in range(b):
            if group[a] == a and interchangeable(a, b):
                group[b] = a
                break
    return group


def _orbit_placements(group: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """One placement per orbit, in lexicographic order.

    Swapping interchangeable devices gives a placement with the same DP
    inputs, hence the same cut and bottleneck.  Each orbit is visited
    once, through its member in which every group's devices appear in
    ascending order — its lexicographically first member, i.e. the one
    a strict-``<`` scan over all permutations would keep.
    """
    d = len(group)

    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == d:
            yield prefix
            return
        tried = set()
        for device in range(d):
            if device not in prefix and group[device] not in tried:
                tried.add(group[device])
                yield from extend(prefix + (device,))

    return extend(())


def search_partition_placement(
    costs: Sequence[LayerCost],
    num_stages: int,
    *,
    device_speeds: Sequence[float],
    bandwidth_matrix: Sequence[Sequence[float]],
    memory_caps: Sequence[float] | None = None,
    flops_per_sec: float = 1.0,
    comm_weight: float = 0.5,
    layer_memory_bytes: Sequence[float] | None = None,
    max_exhaustive: int = 7,
) -> tuple[Partition, tuple[int, ...], float]:
    """Joint partition + placement search (Luo et al., arXiv:2204.10562).

    For every candidate stage->device permutation, runs the DP against
    that placement's slot speeds, link bandwidths and memory caps, and
    keeps the placement whose *optimal* partition has the smallest
    bottleneck.  Candidates are scanned in lexicographic order with a
    strict ``<``, so ties keep the identity.  Permutations that only
    swap interchangeable devices are skipped (see
    :func:`_orbit_placements`): on a uniform cluster every device is
    interchangeable and the search evaluates exactly one placement.
    Above ``max_exhaustive`` stages only the identity is tried.  The
    candidates go through one batched DP, ``_DP_CHUNK`` at a time.

    Returns ``(partition, placement, bottleneck)``.
    """
    k = num_stages
    _check_inputs(len(costs), k, device_speeds, memory_caps)
    if len(bandwidth_matrix) != k or any(len(row) != k for row in bandwidth_matrix):
        raise ValueError(f"bandwidth_matrix must be {k}x{k}")
    if k <= max_exhaustive:
        candidates = list(_orbit_placements(
            _device_groups(device_speeds, bandwidth_matrix, memory_caps)
        ))
    else:
        candidates = [tuple(range(k))]
    compute, acts, mem = _chain_arrays(
        costs, flops_per_sec, layer_memory_bytes, memory_caps is not None
    )
    segments = _segment_sums(compute)
    # slot views: placement[k] hosts stage k; the link into stage k is
    # the directed edge placement[k-1] -> placement[k]
    placements = np.array(candidates)
    slot_speeds = np.asarray(device_speeds, dtype=float)[placements]
    slot_bw = np.full(placements.shape, np.inf)
    slot_bw[:, 1:] = np.asarray(bandwidth_matrix, dtype=float)[
        placements[:, :-1], placements[:, 1:]
    ]
    slot_caps = None
    if memory_caps is not None:
        slot_caps = np.asarray(memory_caps, dtype=float)[placements]
    best: tuple[Partition, tuple[int, ...], float] | None = None
    for start in range(0, len(candidates), _DP_CHUNK):
        chunk = slice(start, start + _DP_CHUNK)
        index, boundaries = _dp_kernel(
            compute,
            acts,
            mem,
            slot_speeds[chunk],
            slot_bw[chunk],
            None if slot_caps is None else slot_caps[chunk],
            comm_weight,
        )
        if not len(index):
            continue  # no placement of this chunk has a memory-feasible cut
        t = _bottlenecks(
            segments,
            acts,
            boundaries,
            slot_speeds[chunk][index],
            slot_bw[chunk][index],
            comm_weight,
        )
        w = int(t.argmin())
        if best is None or t[w] < best[2]:
            best = (
                Partition(boundaries=tuple(boundaries[w].tolist())),
                candidates[start + index[w]],
                float(t[w]),
            )
    if best is None:
        raise RuntimeError(
            "no placement admits a memory-feasible balanced partition"
        )
    return best


def partition_uniform(num_layers: int, num_stages: int) -> Partition:
    """Layer-count-balanced fallback (what naive users do by hand)."""
    if num_stages > num_layers:
        raise ValueError(f"cannot split {num_layers} layers into {num_stages} stages")
    base, extra = divmod(num_layers, num_stages)
    boundaries = [0]
    for k in range(num_stages):
        boundaries.append(boundaries[-1] + base + (1 if k < extra else 0))
    return Partition(boundaries=tuple(boundaries))
