"""Device (utilization curve), Link (latency + sharing), Cluster topology,
and trace aggregation."""

import numpy as np
import pytest

from repro.sim import (
    Cluster,
    ClusterSpec,
    Device,
    Link,
    Simulator,
    SpanKind,
    TraceRecorder,
    UtilizationCurve,
    make_cluster,
)


class TestUtilizationCurve:
    def test_monotone_in_micro_batch_size(self):
        curve = UtilizationCurve()
        demands = [curve.demand(b) for b in (1, 2, 8, 32, 128)]
        assert demands == sorted(demands)

    def test_bounds(self):
        curve = UtilizationCurve(u_max=0.9, u_floor=0.1, b_half=10)
        assert curve.demand(0.001) >= 0.1
        assert curve.demand(1e9) <= 0.9

    def test_half_saturation_point(self):
        curve = UtilizationCurve(u_max=1.0, u_floor=0.0, b_half=16)
        assert curve.demand(16) == pytest.approx(0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UtilizationCurve(u_max=0.5, u_floor=0.6, b_half=1)
        with pytest.raises(ValueError):
            UtilizationCurve(b_half=0)

    def test_nonpositive_batch_rejected(self):
        with pytest.raises(ValueError):
            UtilizationCurve().demand(0)


class TestDevice:
    def test_kernel_duration_scales_with_demand(self):
        sim = Simulator()
        dev = Device(sim, 0, 0, peak_flops=100.0, memory_bytes=2**20,
                     curve=UtilizationCurve(u_max=1.0, u_floor=0.0, b_half=8))
        done_times = {}

        def proc(name, mb):
            yield dev.run_kernel(100.0, mb, name=name)
            done_times[name] = sim.now

        sim.process(proc("big", 8.0))  # demand 0.5 -> rate 50 -> 2s
        sim.run()
        assert done_times["big"] == pytest.approx(2.0)

    def test_two_small_kernels_coexist(self):
        sim = Simulator()
        dev = Device(sim, 0, 0, peak_flops=100.0, memory_bytes=2**20,
                     curve=UtilizationCurve(u_max=1.0, u_floor=0.0, b_half=8))
        ends = []

        def proc(mb):
            yield dev.run_kernel(100.0, mb)
            ends.append(sim.now)

        sim.process(proc(8.0))
        sim.process(proc(8.0))
        sim.run()
        # Both at demand 0.5 -> total 1.0 -> no slowdown.
        assert all(t == pytest.approx(2.0) for t in ends)


class TestLink:
    def test_latency_plus_serialization(self):
        sim = Simulator()
        link = Link(sim, 0, 1, bandwidth_bytes_per_sec=100.0, latency_sec=0.5)
        t_done = []

        def proc():
            yield link.transfer(200.0)
            t_done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert t_done[0] == pytest.approx(0.5 + 2.0)

    def test_concurrent_transfers_share_bandwidth(self):
        sim = Simulator()
        link = Link(sim, 0, 1, bandwidth_bytes_per_sec=100.0, latency_sec=0.0)
        ends = []

        def proc():
            yield link.transfer(100.0)
            ends.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert all(t == pytest.approx(2.0) for t in ends)

    def test_transfer_time_alone(self):
        sim = Simulator()
        link = Link(sim, 0, 1, bandwidth_bytes_per_sec=50.0, latency_sec=0.1)
        link.transfer(100.0)
        sim.run()
        assert sim.now == pytest.approx(2.1)  # latency + bytes / bandwidth

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0, 1, bandwidth_bytes_per_sec=0)
        with pytest.raises(ValueError):
            Link(sim, 0, 1, bandwidth_bytes_per_sec=1, latency_sec=-1)


class TestCluster:
    def test_paper_topology(self):
        sim = Simulator()
        cluster = make_cluster(sim, 6)
        assert cluster.num_devices == 6
        assert cluster.devices[0].node == 0
        assert cluster.devices[1].node == 0
        assert cluster.devices[2].node == 1

    def test_intra_vs_inter_node_links(self):
        sim = Simulator()
        cluster = make_cluster(sim, 6)
        fast = cluster.link(0, 1)
        slow = cluster.link(1, 2)
        assert fast.bandwidth > slow.bandwidth * 10
        assert cluster.devices[1].node != cluster.devices[2].node
        assert cluster.devices[0].node == cluster.devices[1].node

    def test_links_cached(self):
        sim = Simulator()
        cluster = make_cluster(sim, 4)
        assert cluster.link(0, 1) is cluster.link(0, 1)
        assert cluster.link(0, 1) is not cluster.link(1, 0)

    def test_self_link_rejected(self):
        sim = Simulator()
        cluster = make_cluster(sim, 4)
        with pytest.raises(ValueError):
            cluster.link(2, 2)

    def test_spec_device_count_mismatch(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_cluster(sim, 8, spec=ClusterSpec(nodes=3, gpus_per_node=2))


class TestTraceRecorder:
    def test_time_decomposition(self):
        trace = TraceRecorder()
        trace.record(0, 0.0, 1.0, SpanKind.FWD, "1")
        trace.record(0, 1.0, 3.0, SpanKind.BWD, "1")
        trace.record(0, 3.0, 3.5, SpanKind.COMM)
        trace.record(0, 3.5, 4.0, SpanKind.BUBBLE)
        trace.record(1, 0.0, 9.0, SpanKind.FWD, "1")
        d = trace.time_decomposition(0)
        assert d == {"gpu": 3.0, "com": 0.5, "bub": 0.5, "sync": 0.0}

    def test_invalid_span_rejected(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.record(0, 2.0, 1.0, SpanKind.FWD)

    def test_zero_length_span_ignored(self):
        trace = TraceRecorder()
        trace.record(0, 1.0, 1.0, SpanKind.FWD)
        assert trace.spans == []

    def test_average_utilization(self):
        sim = Simulator()
        cluster = make_cluster(sim, 2, spec=ClusterSpec(nodes=1, gpus_per_node=2))

        def proc():
            yield cluster.devices[0].compute.execute(
                cluster.spec.peak_flops * 2.0, demand=1.0
            )

        sim.process(proc())
        sim.run()
        # Device 0 busy at 100% for 2s, device 1 idle -> average 0.5.
        avg = TraceRecorder.average_utilization(cluster, sim.now)
        assert avg == pytest.approx(0.5)

    def test_utilization_curve_sampling(self):
        sim = Simulator()
        cluster = make_cluster(sim, 2, spec=ClusterSpec(nodes=1, gpus_per_node=2))

        def proc():
            yield cluster.devices[0].compute.execute(cluster.spec.peak_flops, demand=1.0)

        sim.process(proc())
        sim.run()
        samples = TraceRecorder.utilization_curve(cluster, 0, horizon=2.0, samples=10)
        assert samples[:5] == pytest.approx([1.0] * 5)
        assert samples[5:] == pytest.approx([0.0] * 5)

    def test_render_produces_rows_per_device(self):
        trace = TraceRecorder()
        trace.record(0, 0.0, 1.0, SpanKind.FWD, "1")
        trace.record(1, 1.0, 2.0, SpanKind.BWD, "1")
        art = trace.render(2, width=20)
        assert art.count("\n") >= 2
        assert "GPU 1" in art and "GPU 2" in art
