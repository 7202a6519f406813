"""Data-parallel (PyTorch-DDP style) simulation baseline.

Every device holds a full model replica and processes ``batch/K``
samples, then gradients are all-reduced.  We model the ring all-reduce:
each device ships ``2 (K-1)/K * grad_bytes`` through its ring neighbour
link; with the paper's placement the ring crosses the 1 Gbps inter-node
Ethernet, which is why DDP loses by ~4.7x in Figure 11.  Memory: full
replica + optimizer state per device — the highest footprint in
Figure 12.

Memory is *reported but not enforced* for this runner: the paper itself
shows a PyTorch footprint above the physical 32 GB on BERT (Figure 12)
while still reporting a PyTorch training time in Figure 11 (host paging /
allocator slack).  We reproduce that anomaly faithfully rather than
inventing an OOM the paper does not show.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.cost_model import LayerCost
from repro.schedules.executor import BWD_FLOP_FACTOR, OPT_STATE_FACTOR, SimIterationResult
from repro.sim.cluster import Cluster
from repro.sim.trace import SpanKind, TraceRecorder

__all__ = ["DataParallelSimRunner"]


class DataParallelSimRunner:
    """Simulates PyTorch-DDP: replicas + ring all-reduce per batch."""
    def __init__(
        self,
        cluster: Cluster,
        layer_costs: list[LayerCost],
        batch_size: int,
        optimizer_state_factor: float = OPT_STATE_FACTOR,
        activation_byte_scale: float = 1.0,
        param_byte_scale: float = 1.0,
        allreduce_inefficiency: float = 3.5,
    ) -> None:
        self.cluster = cluster
        self.costs = layer_costs
        self.batch_size = batch_size
        self.optimizer_state_factor = optimizer_state_factor
        self.activation_byte_scale = activation_byte_scale
        self.param_byte_scale = param_byte_scale
        #: DDP at 1 Gbps achieves a fraction of line rate (bucketing,
        #: protocol rounds, no overlap with the tail of backward); the
        #: factor prices that inefficiency on the all-reduce traffic.
        self.allreduce_inefficiency = allreduce_inefficiency
        self.trace = TraceRecorder()

    def run(self, iterations: int = 1) -> SimIterationResult:
        if iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {iterations}")
        sim = self.cluster.sim
        K = self.cluster.num_devices
        per_device = self.batch_size / K
        flops = sum(c.flops_per_sample for c in self.costs) * per_device
        param_bytes = sum(c.param_bytes for c in self.costs) * self.param_byte_scale
        act_bytes = int(
            sum(c.activation_bytes_per_sample for c in self.costs)
            * per_device
            * self.activation_byte_scale
        )
        grad_traffic = 2.0 * (K - 1) / K * param_bytes * self.allreduce_inefficiency

        weight_bytes = int(param_bytes * (1 + self.optimizer_state_factor))
        for dev in self.cluster.devices:
            dev.memory.alloc(weight_bytes, tag="weights", enforce=False)

        start = sim.now
        comm_time = [0.0] * K

        def worker(k: int):
            device = self.cluster.devices[k]
            for _ in range(iterations):
                device.memory.alloc(act_bytes, tag="activations", enforce=False)
                t0 = sim.now
                yield device.run_kernel(flops, per_device, name=f"dp.f{k}")
                self.trace.record(k, t0, sim.now, SpanKind.FWD, "F")
                t0 = sim.now
                yield device.run_kernel(flops * BWD_FLOP_FACTOR, per_device, name=f"dp.b{k}")
                self.trace.record(k, t0, sim.now, SpanKind.BWD, "B")
                device.memory.free(act_bytes, tag="activations")
                # Ring all-reduce: every device's chunks traverse the node
                # boundary, so the traffic is priced on the inter-node NIC
                # (the next *node's* paired device), not the fast local link.
                t0 = sim.now
                gpn = self.cluster.spec.gpus_per_node
                nxt = (k + gpn) % K if K > gpn else (k + 1) % K
                yield self.cluster.link(k, nxt).transfer(grad_traffic, name=f"allreduce{k}")
                comm_time[k] += sim.now - t0
                self.trace.record(k, t0, sim.now, SpanKind.COMM, "ar")
                t0 = sim.now
                yield device.compute.execute(param_bytes / 4 * 3, demand=0.25, name="opt")
                self.trace.record(k, t0, sim.now, SpanKind.SYNC, "opt")

        processes = [sim.process(worker(k), name=f"dp{k}") for k in range(K)]
        sim.run_until_process(sim.all_of(processes))
        total = sim.now - start

        decomposition = [
            {key: v / iterations for key, v in d.items()}
            for d in self.trace.time_decomposition_all(K)
        ]
        peak = [dev.memory.peak for dev in self.cluster.devices]
        data_peak = [dev.memory.peak_by_tag.get("activations", 0) for dev in self.cluster.devices]
        avg_util = TraceRecorder.average_utilization(self.cluster, sim.now) if sim.now > 0 else 0.0
        for dev in self.cluster.devices:
            dev.memory.free(weight_bytes, tag="weights")
        return SimIterationResult(
            batch_time=total / iterations,
            total_time=total,
            iterations=iterations,
            num_stages=K,
            num_micro=1,
            # One *global* batch per iteration (sharded across devices), so
            # time_per_batch must NOT amortize over the device count.
            num_pipelines=1,
            decomposition=decomposition,
            comm_sent_time=[c / iterations for c in comm_time],
            peak_memory=peak,
            weight_memory=[weight_bytes] * K,
            reference_memory=[0] * K,
            data_memory_peak=data_peak,
            avg_utilization=avg_util,
        )
