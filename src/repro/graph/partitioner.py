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
top: it re-runs the DP per candidate permutation, visiting one placement
per orbit of interchangeable devices.
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
        sum(mem[boundaries[k] : boundaries[k + 1]])
        for k in range(len(boundaries) - 1)
    ]


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
    roughly-half-exposed transfers the simulator shows for 1F1B.

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
    n = len(costs)
    if num_stages <= 0:
        raise ValueError(f"num_stages must be positive, got {num_stages}")
    if num_stages > n:
        raise ValueError(f"cannot split {n} layers into {num_stages} stages")
    if device_speeds is None:
        speeds = [1.0] * num_stages
    else:
        if len(device_speeds) != num_stages:
            raise ValueError(
                f"device_speeds has {len(device_speeds)} entries "
                f"for {num_stages} stages"
            )
        if any(s <= 0 for s in device_speeds):
            raise ValueError(f"device speeds must be positive: {device_speeds}")
        speeds = list(device_speeds)
    bandwidths = _stage_bandwidths(bandwidth_bytes_per_sec, num_stages)
    inf = float("inf")
    if memory_caps is None:
        caps = [inf] * num_stages
        mem_prefix = [0.0] * (n + 1)
    else:
        if len(memory_caps) != num_stages:
            raise ValueError(
                f"memory_caps has {len(memory_caps)} entries for {num_stages} stages"
            )
        caps = list(memory_caps)
        mem = _layer_memory(costs, layer_memory_bytes)
        mem_prefix = np.concatenate([[0.0], np.cumsum(mem)]).tolist()

    compute = np.array([c.flops_per_sample / flops_per_sec for c in costs])
    prefix = np.concatenate([[0.0], np.cumsum(compute)]).tolist()
    acts = [c.activation_bytes_per_sample for c in costs]

    # dp[k][j] = best bottleneck for first j layers in k stages.  A
    # stage's steady-state service time is its compute plus the (receive)
    # communication of its input cut — modelling them additively, as
    # PipeDream's planner does, also breaks ties toward balanced compute
    # when a slow interconnect would otherwise make every cut look equal.
    dp = [[inf] * (n + 1) for _ in range(num_stages + 1)]
    choice = [[-1] * (n + 1) for _ in range(num_stages + 1)]
    dp[0][0] = 0.0
    for k in range(1, num_stages + 1):
        speed, cap, prev = speeds[k - 1], caps[k - 1], dp[k - 1]
        # comm[i]: input cut of a stage whose first layer is i (stage 1
        # can only start at layer 0, which pays no cut)
        if k == 1:
            comm = [0.0] * n
        else:
            bandwidth = bandwidths[k - 1]
            comm = [0.0] + [comm_weight * (a / bandwidth) for a in acts[:-1]]
        for j in range(k, n + 1):
            # last stage covers layers (i, j]; i ranges over k-1 .. j-1
            best, best_i = inf, -1
            prefix_j, mem_j = prefix[j], mem_prefix[j]
            for i in range(k - 1, j):
                before = prev[i]
                if before == inf or mem_j - mem_prefix[i] > cap:
                    continue
                service = (prefix_j - prefix[i]) / speed + comm[i]
                candidate = service if service > before else before
                if candidate < best:
                    best, best_i = candidate, i
            dp[k][j] = best
            choice[k][j] = best_i
    if dp[num_stages][n] == inf:
        raise RuntimeError(
            "partition DP found no feasible cut "
            "(memory caps too tight for a contiguous K-stage split)"
        )

    boundaries = [n]
    j = n
    for k in range(num_stages, 0, -1):
        j = choice[k][j]
        boundaries.append(j)
    boundaries.reverse()
    return Partition(boundaries=tuple(boundaries))


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
        stage_compute = sum(c.flops_per_sample / flops_per_sec for c in costs[lo:hi])
        if device_speeds is not None:
            stage_compute = stage_compute / device_speeds[k]
        cut_comm = 0.0
        if k > 0:
            cut_comm = comm_weight * (
                costs[lo - 1].activation_bytes_per_sample / bandwidths[k]
            )
        worst = max(worst, stage_compute + cut_comm)
    return worst


def _slot_views(
    placement: Sequence[int],
    device_speeds: Sequence[float],
    bandwidth_matrix: Sequence[Sequence[float]],
    memory_caps: Sequence[float] | None,
) -> tuple[list[float], list[float], list[float] | None]:
    """Per-stage-slot speed/bandwidth/cap vectors under a placement.

    ``placement[k]`` is the device hosting stage k; the link into stage k
    is the directed edge placement[k-1] -> placement[k].
    """
    k_stages = len(placement)
    slot_speeds = [device_speeds[p] for p in placement]
    slot_bw = [float("inf")] + [
        bandwidth_matrix[placement[k - 1]][placement[k]] for k in range(1, k_stages)
    ]
    slot_caps = None
    if memory_caps is not None:
        slot_caps = [memory_caps[p] for p in placement]
    return slot_speeds, slot_bw, slot_caps


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

    For every candidate stage->device permutation, re-runs the DP
    against that placement's slot speeds, link bandwidths and memory
    caps, and keeps the placement whose *optimal* partition has the
    smallest bottleneck.  Candidates are scanned in lexicographic order
    with a strict ``<``, so ties keep the identity.  Permutations that
    only swap interchangeable devices are skipped (see
    :func:`_orbit_placements`): on a uniform cluster every device is
    interchangeable and the search runs exactly one DP.  Above
    ``max_exhaustive`` stages only the identity is tried.

    Returns ``(partition, placement, bottleneck)``.
    """
    k = num_stages
    if len(device_speeds) != k:
        raise ValueError(
            f"device_speeds has {len(device_speeds)} entries for {k} stages"
        )
    if len(bandwidth_matrix) != k or any(len(row) != k for row in bandwidth_matrix):
        raise ValueError(f"bandwidth_matrix must be {k}x{k}")
    if memory_caps is not None and len(memory_caps) != k:
        raise ValueError(f"memory_caps has {len(memory_caps)} entries for {k} stages")
    if k <= max_exhaustive:
        candidates = _orbit_placements(
            _device_groups(device_speeds, bandwidth_matrix, memory_caps)
        )
    else:
        candidates = [tuple(range(k))]
    best: tuple[Partition, tuple[int, ...], float] | None = None
    for perm in candidates:
        slot_speeds, slot_bw, slot_caps = _slot_views(
            perm, device_speeds, bandwidth_matrix, memory_caps
        )
        try:
            part = partition_model(
                costs,
                k,
                device_speeds=slot_speeds,
                bandwidth_bytes_per_sec=slot_bw,
                flops_per_sec=flops_per_sec,
                comm_weight=comm_weight,
                memory_caps=slot_caps,
                layer_memory_bytes=layer_memory_bytes,
            )
        except RuntimeError:
            continue  # this placement has no memory-feasible cut
        t = balanced_bottleneck(
            costs,
            part.boundaries,
            device_speeds=slot_speeds,
            bandwidth_bytes_per_sec=slot_bw,
            flops_per_sec=flops_per_sec,
            comm_weight=comm_weight,
        )
        if best is None or t < best[2]:
            best = (part, perm, t)
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
