"""Simulator-side pipeline executor.

Runs one or more training iterations of N parallel pipelines over a
simulated cluster under a given schedule, producing the measurements the
paper's figures report: batch time, per-device T_gpu/T_com/T_bub
(Equation 1), peak memory by category, utilization traces and ASCII
timelines.

One generator process per (pipeline, stage) walks the schedule's op
stream; data dependencies are events completed by link transfers, so
starvation, overlap and contention emerge from the event engine rather
than being hand-coded per schedule.

Consecutive pipelines placed alike move in exact lockstep, so each such
*lockstep group* (:func:`lockstep_groups`) runs as one process per
stage whose kernels and transfers count once per member.  Each op is
one trace record for the whole group, which stands for every member's
span in member order; every member still gets its own progress clock,
stash and ``comm_sent`` addition, in member order.  docs/simulator.md
("Identical pipelines simulated once", "What one simulated op costs")
gives the argument that the results are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.graph.cost_model import LayerCost
from repro.graph.partitioner import Partition
from repro.schedules.base import Schedule, StageOp
from repro.sim.cluster import Cluster
from repro.sim.events import Simulator, Wake
from repro.sim.memory import OutOfMemoryError
from repro.sim.trace import SpanKind, TraceRecorder

__all__ = ["StageCosts", "PipelineSimRunner", "SimIterationResult", "lockstep_groups"]

#: backward work relative to forward (the usual 2x rule of thumb)
BWD_FLOP_FACTOR = 2.0
#: optimizer state bytes per parameter byte (Adam: m and v)
OPT_STATE_FACTOR = 2.0


@dataclass(frozen=True)
class StageCosts:
    """Per-stage costs for one micro-batch of ``mb_size`` samples."""

    fwd_flops: tuple[float, ...]
    act_out_bytes: tuple[float, ...]  # transfer size stage k -> k+1
    stash_bytes: tuple[float, ...]  # activation memory retained F -> B
    param_bytes: tuple[int, ...]

    @property
    def num_stages(self) -> int:
        return len(self.fwd_flops)

    @staticmethod
    def from_partition(
        costs: Sequence[LayerCost],
        partition: Partition,
        mb_size: float,
        activation_byte_scale: float = 1.0,
        param_byte_scale: float = 1.0,
        stash_multiplier: float = 6.0,
    ) -> "StageCosts":
        """Aggregate per-layer costs into per-stage costs at ``mb_size``.

        The two scale factors calibrate the miniature CPU models back to
        the paper's testbed regime: model *width* was shrunk ~20x, which
        shrinks flops quadratically but bytes only linearly, so byte
        quantities must be re-inflated for the simulated comm/compute and
        memory/capacity ratios to match the 1 Gbps + 32 GB V100 setup.
        Values per workload live in :mod:`repro.core.simcfg`; the
        calibration rationale is documented in DESIGN.md.

        ``stash_multiplier`` prices the *internal* activations a backward
        pass needs (LSTM gates, attention maps, MLP intermediates) as a
        multiple of the layer's output bytes — the stash a stage holds
        between a micro-batch's forward and backward is several times the
        tensor it ships downstream.
        """
        if mb_size <= 0:
            raise ValueError(f"micro-batch size must be positive, got {mb_size}")
        if activation_byte_scale <= 0 or param_byte_scale <= 0:
            raise ValueError("byte scales must be positive")
        if stash_multiplier < 1.0:
            raise ValueError("stash_multiplier must be >= 1")
        fwd, act_out, stash, params = [], [], [], []
        for k in range(partition.num_stages):
            lo, hi = partition.span(k)
            fwd.append(sum(c.flops_per_sample for c in costs[lo:hi]) * mb_size)
            act_out.append(
                costs[hi - 1].activation_bytes_per_sample * mb_size * activation_byte_scale
            )
            stash.append(
                sum(c.activation_bytes_per_sample for c in costs[lo:hi])
                * mb_size
                * activation_byte_scale
                * stash_multiplier
            )
            params.append(int(sum(c.param_bytes for c in costs[lo:hi]) * param_byte_scale))
        return StageCosts(tuple(fwd), tuple(act_out), tuple(stash), tuple(params))


@dataclass
class SimIterationResult:
    """Measurements from a simulated run of ``iterations`` batches."""

    batch_time: float  # mean seconds per iteration
    total_time: float
    iterations: int
    num_stages: int
    num_micro: int
    num_pipelines: int
    decomposition: list[dict[str, float]]  # per device, per batch
    comm_sent_time: list[float]  # T^k: per-stage total transfer seconds/batch
    peak_memory: list[int]  # bytes per device
    weight_memory: list[int]  # bytes per device (model + versions + opt state)
    reference_memory: list[int]  # bytes of the co-partitioned reference copy
    data_memory_peak: list[int]  # peak activation bytes per device
    avg_utilization: float
    utilization_curves: np.ndarray | None = None
    timeline: str = ""
    oom: OutOfMemoryError | None = None
    #: the recorder behind the decomposition — lets repro.obs export the
    #: run as a Chrome trace without re-running the simulation.
    trace: TraceRecorder | None = None

    @property
    def time_per_batch(self) -> float:
        """Seconds per *batch* of data: an iteration advances
        ``num_pipelines`` batches concurrently (Equation 2's amortization)."""
        return self.batch_time / self.num_pipelines

    @property
    def last_device_idle(self) -> float:
        d = self.decomposition[-1]
        return d["com"] + d["bub"]


def lockstep_groups(
    device_map: list[list[int]], isolated: set[int] | frozenset[int] = frozenset()
) -> list[tuple[int, ...]]:
    """Maximal runs of consecutive pipelines with equal ``device_map``
    rows; a pipeline in ``isolated`` is a group of its own."""
    groups: list[list[int]] = []
    for p, row in enumerate(device_map):
        prev = groups[-1][-1] if groups else None
        if (prev is not None and p not in isolated and prev not in isolated
                and device_map[prev] == row):
            groups[-1].append(p)
        else:
            groups.append([p])
    return [tuple(g) for g in groups]


def _oom_survivors(members, oom_box, group: int, it: int) -> tuple[int, ...]:
    """The members still running after the start of iteration ``it``,
    given the failed stash allocations so far.

    One process per pipeline returns at an iteration start once any
    allocation has failed before it.  Every failure of an earlier event
    came first for all members.  The exception is the chain that starts
    this group's iteration (the process starts at time 0, or the batch
    barrier), where stage 0 allocates its first stash: there pipeline p's
    processes run before pipeline p + 1's, so a failure of member q came
    first only for members from q on (``origin`` is ``(group, it, q)``).
    """
    first = None
    for _, origin in oom_box:
        if origin is None or origin[0] != group or origin[1] != it:
            return ()
        first = origin[2] if first is None else min(first, origin[2])
    return tuple(p for p in members if p < first)


class _TransferTag:
    """One stage-to-stage transfer of a lockstep group, from send to
    arrival.

    The link completes the tag as a heap entry (see
    :mod:`repro.sim.events`): it adds the transfer time to the sender's
    ``comm_sent`` once per member it carries, then wakes the receiver if
    one waits (a :class:`~repro.sim.events.Wake`).  The receiver splits
    its wait at ``started_at`` into BUBBLE and COMM spans.
    """

    __slots__ = ("sim", "comm_sent", "src_stage", "started_at", "arrived", "waiter", "members")
    cancelled = False
    triggered = False  # a link completes each tag once
    value = None

    def __init__(self, sim: Simulator, comm_sent: list[float], src_stage: int) -> None:
        self.sim = sim
        self.comm_sent = comm_sent
        self.src_stage = src_stage
        self.started_at: float | None = None
        self.arrived = False
        self.waiter: Wake | None = None
        #: the sender's members at the send (None until sent)
        self.members: tuple[int, ...] | None = None

    def succeed(self, value=None) -> None:
        elapsed = self.sim.now - self.started_at
        total = self.comm_sent[self.src_stage]
        for _ in self.members:
            total += elapsed
        self.comm_sent[self.src_stage] = total
        self.arrived = True
        waiter = self.waiter
        if waiter is not None and not waiter.triggered:
            waiter.succeed()


class PipelineSimRunner:
    """Simulates N parallel pipelines of K stages on a cluster.

    Stage k of every pipeline is placed on device k (the paper's straight
    chain).  The reference-model process of AvgPipe lives on the same
    device and communicates through intra-process queues, so it adds
    memory but no network traffic; its (tiny) update cost is modelled as
    a low-demand kernel at batch boundaries.
    """

    def __init__(
        self,
        cluster: Cluster,
        schedule: Schedule,
        stage_costs: StageCosts,
        num_micro: int,
        mb_size: float,
        num_pipelines: int = 1,
        with_reference_model: bool = False,
        optimizer_state_factor: float = OPT_STATE_FACTOR,
        record_utilization: bool = False,
        device_map: list[list[int]] | None = None,
        activation_recompute: bool = False,
        registry=None,
    ) -> None:
        if device_map is None and stage_costs.num_stages != cluster.num_devices:
            raise ValueError(
                f"{stage_costs.num_stages} stages vs {cluster.num_devices} devices "
                "(pass device_map for virtual stages)"
            )
        if num_pipelines < 1:
            raise ValueError("need at least one pipeline")
        if device_map is not None:
            if len(device_map) != num_pipelines:
                raise ValueError("device_map needs one row per pipeline")
            for row in device_map:
                if len(row) != stage_costs.num_stages:
                    raise ValueError(
                        f"device_map rows must have one device per stage, got {row}"
                    )
                if any(not 0 <= d < cluster.num_devices for d in row):
                    raise ValueError(f"device index out of range in {row}")
                # Every device must host at least one stage so weights and
                # traffic stay balanced across the cluster.
                if set(row) != set(range(cluster.num_devices)):
                    raise ValueError(
                        f"each device_map row must cover every device, got {row}"
                    )
        self.cluster = cluster
        self.schedule = schedule
        self.costs = stage_costs
        self.num_micro = num_micro
        self.mb_size = mb_size
        self.num_pipelines = num_pipelines
        self.with_reference_model = with_reference_model
        self.optimizer_state_factor = optimizer_state_factor
        self.record_utilization = record_utilization
        #: device_map[p][k] = device hosting stage k of pipeline p.  The
        #: default straight chain puts stage k on device k for every
        #: pipeline; Chimera-style bidirectional pipelines pass a reversed
        #: row for the second pipeline so each device hosts one early and
        #: one late stage and the warmup bubbles interleave.
        self.device_map = device_map or [
            list(range(stage_costs.num_stages)) for _ in range(num_pipelines)
        ]
        #: Activation recomputation (GPipe's re-materialization; the
        #: paper's baselines disable it, §7.1): between a micro-batch's
        #: forward and backward only the stage-input activation is kept
        #: (act_out of the previous stage) and the internal stash is
        #: rebuilt by an extra forward pass folded into the backward —
        #: trading ~1x forward flops for the stash memory.
        self.activation_recompute = activation_recompute
        #: optional repro.obs MetricRegistry; spans are mirrored into it
        #: by the TraceRecorder and end-of-run footprints/iteration
        #: counters are published by run().  None (default) = no hooks.
        self.registry = registry
        self.trace = TraceRecorder(registry=registry)
        #: pipelines aborted mid-run (repro.resilience fault injection).
        self._crashed: set[int] = set()
        #: pipelines simulated as lockstep groups of their own, so that a
        #: fault can crash them mid-run (:meth:`isolate_pipeline`).
        self._isolated: set[int] = set()
        self._groups: list[tuple[int, ...]] = []
        self._stalled = False
        #: sim time of each pipeline's last completed compute span — the
        #: progress clock heartbeat detectors watch.
        self.last_progress: dict[int, float] = {}
        #: batches fully completed per pipeline (barrier passages).
        self.iterations_completed: list[int] = []
        self._act_ready = None
        self._grad_ready = None
        self._stage_done = None
        self._ran = False

    def _device_of(self, pipeline: int, stage: int) -> int:
        return self.device_map[pipeline][stage]

    # ------------------------------------------------------------------ #
    # fault injection (repro.resilience)

    def isolate_pipeline(self, pipeline: int) -> None:
        """Simulate ``pipeline`` as a lockstep group of its own, so that
        :meth:`crash_pipeline` can abort it; call before :meth:`run`.
        Results are the same bits either way."""
        if self._ran:
            raise RuntimeError("isolate_pipeline() must be called before run()")
        if not 0 <= pipeline < self.num_pipelines:
            raise ValueError(f"pipeline index {pipeline} out of range")
        self._isolated.add(pipeline)

    def crash_pipeline(self, pipeline: int) -> None:
        """Abort one pipeline mid-iteration and let its stages drain.

        Marks the pipeline crashed and wakes every stage process of it that
        is blocked on a data dependency or batch barrier; each woken stage
        notices the flag, frees the activation stash it still holds and
        returns.  Other pipelines are untouched — they only shared device
        time with the victim.  Stages stuck inside a kernel on a *frozen*
        device cannot be woken (nothing completes on a dead device); their
        stash stays allocated, like a real dead process's memory.

        The pipeline must have been isolated before the run
        (:meth:`isolate_pipeline`; :class:`~repro.resilience.FaultInjector`
        does it for every planned crash).
        """
        if self._act_ready is None:
            raise RuntimeError("no run in progress")
        if not 0 <= pipeline < self.num_pipelines:
            raise ValueError(f"pipeline index {pipeline} out of range")
        group, members = next(
            (g, members) for g, members in enumerate(self._groups) if pipeline in members
        )
        if len(members) > 1:
            raise RuntimeError(
                f"cannot crash pipeline {pipeline}: it is simulated in one lockstep "
                f"group with pipelines {members}; call isolate_pipeline({pipeline}) "
                "before run()"
            )
        if pipeline in self._crashed:
            return
        self._crashed.add(pipeline)
        for per_stage in (self._act_ready[group], self._grad_ready[group]):
            for tags in per_stage:
                for tag in tags:
                    if tag is not None and tag.waiter is not None and not tag.waiter.triggered:
                        tag.waiter.succeed()
        for per_it in self._stage_done[group]:
            for ev in per_it:
                if not ev.triggered:
                    ev.succeed()

    def _carried(self, members: tuple[int, ...], carried) -> tuple[int, ...]:
        """The members a tag or barrier still carries (``carried`` is None
        on a crash wake-up).  A member left out waits forever in its own
        process, so the run can no longer finish: it drains the heap."""
        if carried is None or carried is members:
            return members
        kept = tuple(p for p in members if p in carried)
        if len(kept) < len(members):
            self._stalled = True
        return kept

    def _drain_stage(self, stage: int, device, outstanding: int) -> None:
        """Free the ``outstanding`` stashes a crashed pipeline's stage
        still holds."""
        if outstanding:
            device.memory.free(outstanding * self._stash_bytes(stage), tag="activations")

    # ------------------------------------------------------------------ #

    def run(self, iterations: int = 1, render_timeline: bool = False) -> SimIterationResult:
        """Simulate ``iterations`` batches.  One-shot: the trace and the
        cluster keep this run's spans and state, so a second call on the
        same runner raises instead of reporting merged measurements."""
        if self._ran:
            raise RuntimeError(
                "PipelineSimRunner.run() called twice: a runner is one-shot "
                "(its trace keeps the first run's spans); build a new runner "
                "on a fresh cluster for another run"
            )
        self._ran = True
        sim = self.cluster.sim
        K = self.costs.num_stages
        N = self.num_pipelines
        M = self.num_micro

        try:
            weight_bytes, reference_bytes = self._allocate_weights()
        except OutOfMemoryError as oom:
            return self._oom_result(oom)

        start_time = sim.now
        comm_sent = [0.0] * K
        # (error, origin) per failed stash allocation; see _oom_survivors.
        oom_box: list[tuple[OutOfMemoryError, tuple[int, int, int] | None]] = []

        groups = self._groups = lockstep_groups(self.device_map, self._isolated)
        G = len(groups)
        # Transfer tags act_ready[g][k][it*M + i] of group g, grad_ready
        # likewise; each is made by whichever of sender and receiver
        # reaches it first.
        total_mb = iterations * M
        act_ready = [[[None] * total_mb for _ in range(K)] for _ in range(G)]
        grad_ready = [[[None] * total_mb for _ in range(K)] for _ in range(G)]
        # Per-iteration barriers for synchronous schedules.
        stage_done = [
            [[sim.event() for _ in range(K)] for _ in range(iterations)] for _ in range(G)
        ]
        # Exposed for crash_pipeline (fault injection mid-run).
        self._crashed = set()
        self._act_ready, self._grad_ready, self._stage_done = act_ready, grad_ready, stage_done
        self.last_progress = {p: start_time for p in range(N)}
        self.iterations_completed = [0] * N

        processes = []
        for g, members in enumerate(groups):
            name = "pipe" + "+".join(map(str, members))
            for k in range(K):
                gen = self._stage_process(
                    sim, g, k, iterations, act_ready, grad_ready, stage_done,
                    comm_sent, oom_box,
                )
                processes.append(sim.process(gen, name=f"{name}.stage{k}"))

        finish = sim.all_of(processes)
        self._stalled = False
        try:
            sim.run_until_process(finish)
            if self._stalled:
                # A member's own process would still wait: run to the
                # deadlock it would have met.
                sim.run_until_process(sim.event())
        except RuntimeError:
            # A stage that died on OOM starves its neighbours of events;
            # the engine reports the resulting deadlock — translate it.
            if not oom_box:
                raise
        if oom_box:
            self._free_weights(weight_bytes)
            return self._oom_result(oom_box[0][0])
        total = sim.now - start_time
        horizon = sim.now

        decomposition = [
            {key: v / iterations for key, v in d.items()}
            for d in self.trace.time_decomposition_all(self.cluster.num_devices)
        ]

        peak_mem = [dev.memory.peak for dev in self.cluster.devices]
        data_peak = [dev.memory.peak_by_tag.get("activations", 0) for dev in self.cluster.devices]
        avg_util = TraceRecorder.average_utilization(self.cluster, horizon) if horizon > 0 else 0.0
        curves = None
        if self.record_utilization:
            curves = np.stack(
                [
                    TraceRecorder.utilization_curve(self.cluster, dev, horizon)
                    for dev in range(self.cluster.num_devices)
                ]
            )
        timeline = (
            self.trace.render(self.cluster.num_devices, end_time=horizon)
            if render_timeline
            else ""
        )

        if self.registry is not None:
            self._publish_run_metrics(iterations, total)
        self._free_weights(weight_bytes)
        return SimIterationResult(
            batch_time=total / iterations,
            total_time=total,
            iterations=iterations,
            num_stages=K,
            num_micro=M,
            num_pipelines=N,
            decomposition=decomposition,
            comm_sent_time=[c / iterations for c in comm_sent],
            peak_memory=peak_mem,
            weight_memory=weight_bytes,
            reference_memory=reference_bytes,
            data_memory_peak=data_peak,
            avg_utilization=avg_util,
            utilization_curves=curves,
            timeline=timeline,
            trace=self.trace,
        )

    def _publish_run_metrics(self, iterations: int, total: float) -> None:
        """End-of-run telemetry: memory high-water marks per device
        (weights still allocated at this point), per-pipeline iteration
        counters and wall totals on the sim clock."""
        reg = self.registry
        for device in self.cluster.devices:
            device.publish_telemetry(reg)
        for p, done in enumerate(self.iterations_completed):
            reg.counter("sim.pipeline.iterations", pipeline=p).inc(done)
        reg.gauge("sim.run.iterations").set(iterations)
        reg.gauge("sim.run.total_seconds").set(total)
        reg.gauge("sim.run.num_micro").set(self.num_micro)
        reg.gauge("sim.run.num_pipelines").set(self.num_pipelines)
        samples = self.mb_size * self.num_micro * sum(self.iterations_completed)
        reg.counter("sim.run.samples").inc(samples)
        if total > 0:
            reg.gauge("sim.run.samples_per_second").set(samples / total)

    # ------------------------------------------------------------------ #

    def _allocate_weights(self) -> tuple[list[int], list[int]]:
        """Reserve model(+versions+optimizer+reference) memory per device.

        Returns (total bytes, reference bytes) per device; the reference
        copy is reported separately because it does not scale with the
        pipeline count (the predictor's refined Equation 8 needs this).
        """
        K = self.costs.num_stages
        out = [0] * self.cluster.num_devices
        refs = [0] * self.cluster.num_devices
        for p in range(self.num_pipelines):
            for k in range(K):
                dev_idx = self._device_of(p, k)
                versions = self.schedule.weight_versions(k, K)
                out[dev_idx] += int(
                    self.costs.param_bytes[k] * (versions + self.optimizer_state_factor)
                )
        if self.with_reference_model:
            # The reference is co-partitioned along the first pipeline.
            for k in range(K):
                dev_idx = self._device_of(0, k)
                refs[dev_idx] = self.costs.param_bytes[k]
                out[dev_idx] += refs[dev_idx]
        for dev, nbytes in zip(self.cluster.devices, out):
            dev.memory.alloc(nbytes, tag="weights")
        return out, refs

    def _free_weights(self, allocated: list[int]) -> None:
        for dev, nbytes in zip(self.cluster.devices, allocated):
            dev.memory.free(nbytes, tag="weights")

    def _oom_result(self, oom: OutOfMemoryError) -> SimIterationResult:
        K = self.costs.num_stages
        D = self.cluster.num_devices
        return SimIterationResult(
            batch_time=float("inf"),
            total_time=float("inf"),
            iterations=0,
            num_stages=K,
            num_micro=self.num_micro,
            num_pipelines=self.num_pipelines,
            decomposition=[{"gpu": 0.0, "com": 0.0, "bub": 0.0, "sync": 0.0} for _ in range(D)],
            comm_sent_time=[0.0] * K,
            peak_memory=[dev.memory.capacity for dev in self.cluster.devices],
            weight_memory=[0] * D,
            reference_memory=[0] * D,
            data_memory_peak=[0] * D,
            avg_utilization=0.0,
            oom=oom,
            trace=self.trace,
        )

    # ------------------------------------------------------------------ #

    def _stage_process(
        self,
        sim: Simulator,
        group: int,
        stage: int,
        iterations: int,
        act_ready,
        grad_ready,
        stage_done,
        comm_sent: list[float],
        oom_box: list,
    ):
        K = self.costs.num_stages
        M = self.num_micro
        # The group's pipelines still running at this stage, in order.  A
        # member leaves when its stash allocation fails here, or when a
        # tag or barrier arrives without it (it failed elsewhere); the
        # tuple is replaced, never mutated, as tags keep the sender's.
        members = self._groups[group]
        count = len(members)
        # Only a group of one can crash (crash_pipeline), so its one
        # member stands for the group in the crash checks.
        lead = members[0]
        device = self.cluster.devices[self._device_of(lead, stage)]
        ops = self.schedule.stage_ops(stage, K, M)
        sync = self.schedule.sync_at_batch_end

        # Per-stage constants, hoisted out of the event-driven hot loop.
        crashed = self._crashed
        last_progress = self.last_progress
        record_op = self.trace.record_op
        record_wait = self.trace.record_wait
        memory = device.memory
        execute = device.compute.execute
        submit = device.compute.submit
        demand = device.kernel_demand(self.mb_size)
        dev_index = device.index
        outstanding = 0  # stashes held per member: forwards not yet backwarded
        stash = self._stash_bytes(stage)
        fwd_flops = self.costs.fwd_flops[stage]
        bwd_flops = fwd_flops * BWD_FLOP_FACTOR
        if self.activation_recompute:
            # Re-materialize the stash: one extra forward pass.
            bwd_flops += fwd_flops
        this_dev = self._device_of(lead, stage)
        # Per op kind: the row it waits on and that row's sender, the
        # kernel's work, and the row it sends to over which link.
        fwd = [None, None, fwd_flops, SpanKind.FWD, None, None, 0.0]
        bwd = [None, None, bwd_flops, SpanKind.BWD, None, None, 0.0]
        if stage < K - 1:
            bwd[0:2] = grad_ready[group][stage], stage + 1
            down_dev = self._device_of(lead, stage + 1)
            fwd[4:7] = (
                act_ready[group][stage + 1],
                self.cluster.link(this_dev, down_dev),
                self.costs.act_out_bytes[stage],
            )
        if stage > 0:
            fwd[0:2] = act_ready[group][stage], stage - 1
            up_dev = self._device_of(lead, stage - 1)
            bwd[4:7] = (
                grad_ready[group][stage - 1],
                self.cluster.link(this_dev, up_dev),
                self.costs.act_out_bytes[stage - 1],
            )
        # The op sequence repeats every iteration: resolve it once.
        op_seq = [
            (op.kind == "fwd", op.micro, str(op.micro + 1), *(fwd if op.kind == "fwd" else bwd))
            for op in ops
        ]

        for it in range(iterations):
            if oom_box:
                members = _oom_survivors(members, oom_box, group, it)
                count = len(members)
                if not count:
                    return
            if lead in crashed:
                self._drain_stage(stage, device, outstanding)
                return
            base = it * M
            for (is_fwd, micro, label, wait_row, src, flops, kind,
                 send_row, link, nbytes) in op_seq:
                if lead in crashed:
                    self._drain_stage(stage, device, outstanding)
                    return
                mb = base + micro
                # -- wait for the input (activation or gradient) ------------
                if wait_row is not None:
                    tag = wait_row[mb]
                    if tag is None:
                        tag = wait_row[mb] = _TransferTag(sim, comm_sent, src)
                    wait_start = None
                    if not tag.arrived:
                        wait_start = sim.now
                        tag.waiter = waiter = Wake()
                        yield waiter
                    if tag.members is not members:
                        members = self._carried(members, tag.members)
                        count = len(members)
                        if not count:
                            return
                    if wait_start is not None:
                        arrive = sim.now
                        if arrive > wait_start:
                            # BUBBLE until the sender started, COMM after,
                            # once per member.
                            xfer_start = arrive if tag.started_at is None else tag.started_at
                            split = min(max(xfer_start, wait_start), arrive)
                            record_wait(dev_index, wait_start, split, arrive, count)
                        if lead in crashed:  # woken by the abort
                            self._drain_stage(stage, device, outstanding)
                            return
                # -- stash activation memory, one stash per member ---------
                if is_fwd:
                    try:
                        # The ledger state of ``count`` equal allocations.
                        memory.alloc(stash * count, "activations")
                    except OutOfMemoryError:
                        # Not all fit: the first member that fails and the
                        # ones after it leave.
                        for i, p in enumerate(members):
                            try:
                                memory.alloc(stash, "activations")
                            except OutOfMemoryError as oom:
                                # Stage 0's first allocation runs in the chain
                                # that starts the iteration (_oom_survivors).
                                starts = stage == 0 and micro == 0 and (sync or it == 0)
                                oom_box.append((oom, (group, it, p) if starts else None))
                                members = members[:i]
                                break
                        count = len(members)
                        if not count:
                            return
                    outstanding += 1
                # -- compute ------------------------------------------------
                t0 = sim.now
                done = Wake()
                submit(flops, demand, done, count)
                yield done
                now = sim.now
                record_op(dev_index, t0, now, kind, label, members, stage, mb)
                for p in members:
                    last_progress[p] = now
                if not is_fwd:
                    memory.free(stash * count, "activations")
                    outstanding -= 1
                # -- ship the output to its neighbour (asynchronously) ------
                if send_row is not None:
                    tag = send_row[mb]
                    if tag is None:
                        tag = send_row[mb] = _TransferTag(sim, comm_sent, stage)
                    tag.started_at = now
                    tag.members = members
                    link.transfer(nbytes, done=tag, count=count)

            # ---------------- batch boundary -------------------------------
            if sync:
                # Local optimizer step (+ elastic pull & async update send for
                # AvgPipe): elementwise over the stage's weights, low demand.
                t0 = sim.now
                update_flops = self.costs.param_bytes[stage] / 4 * 3
                if self.with_reference_model:
                    update_flops *= 2  # elastic pull + reference accumulate
                yield execute(update_flops, demand=0.25, name="opt", count=count)
                record_op(dev_index, t0, sim.now, SpanKind.SYNC, "opt", (None,) * count)
                barrier = stage_done[group][it]
                if not barrier[stage].triggered:  # abort may have fired it
                    barrier[stage].succeed(members)
                # All stages of this pipeline join before the next batch —
                # the semantics of a per-batch optimizer step.
                yield sim.all_of(barrier)
                if lead in crashed:
                    self._drain_stage(stage, device, outstanding)
                    return
                for ev in barrier:
                    if ev.value is not members:
                        members = self._carried(members, ev.value)
                count = len(members)
                if not count:
                    return
            # Async schedules (PipeDream) roll straight into the next batch.
            if stage == 0:
                for p in members:
                    self.iterations_completed[p] = it + 1

    def _stash_bytes(self, stage: int) -> int:
        """Bytes held between a micro-batch's forward and its backward."""
        if self.activation_recompute:
            # Only the stage boundary input survives; internals are rebuilt.
            boundary = self.costs.act_out_bytes[stage - 1] if stage > 0 else (
                self.costs.act_out_bytes[stage]  # first stage keeps its input batch
            )
            return int(min(boundary, self.costs.stash_bytes[stage]))
        return int(self.costs.stash_bytes[stage])
