"""Heterogeneous cluster specs: validation, uniform bit-identity, wins.

Four layers of coverage:

* :class:`ClusterSpec` heterogeneity fields validate and read back
  correctly (per-device speed/memory, directed link overrides);
* explicit "trivially heterogeneous" specs (unit speeds, identity
  placement, capacities equal to the shared budget) simulate *bitwise
  identically* to the uniform defaults — the guarantee that lets every
  uniform golden stay pinned while the hetero paths exist;
* the canned variants (:mod:`repro.sim.hetero`) are shaped as documented
  and the planning stack beats uniform partitioning on each of them in
  actual simulation (the acceptance criterion, at smoke scale — the
  benchmark asserts it again at full scale);
* the verify fuzzer draws heterogeneous configurations reproducibly and
  its per-device OOM predictions stay honest.
"""

import dataclasses

import pytest

from repro.core.profiler import Profiler
from repro.core.simcfg import calibration_for
from repro.experiments.hetero_clusters import STRATEGY_ORDER, run_hetero
from repro.schedules import AdvanceFPSchedule
from repro.sim import ClusterSpec, hetero_variant, hetero_variant_names
from repro.verify.fuzz import SIM_AXIS, fuzz_configs, run_case


class TestClusterSpecValidation:
    def test_speed_length_mismatch(self):
        with pytest.raises(ValueError, match="device_speed"):
            ClusterSpec(nodes=2, gpus_per_node=2, device_speed=(1.0, 0.5))

    def test_non_positive_speed(self):
        with pytest.raises(ValueError, match="positive"):
            ClusterSpec(nodes=2, gpus_per_node=2, device_speed=(1.0, 0.5, 0.0, 1.0))

    def test_memory_length_mismatch(self):
        with pytest.raises(ValueError, match="device_memory_bytes"):
            ClusterSpec(nodes=2, gpus_per_node=2, device_memory_bytes=(1, 2, 3))

    def test_non_positive_memory(self):
        with pytest.raises(ValueError, match="positive"):
            ClusterSpec(nodes=2, gpus_per_node=2, device_memory_bytes=(1, 1, 0, 1))

    def test_self_link_override(self):
        with pytest.raises(ValueError, match="self-link"):
            ClusterSpec(nodes=2, gpus_per_node=2, link_overrides=((1, 1, 1e9, 0.0),))

    def test_out_of_range_override(self):
        with pytest.raises(ValueError, match="outside"):
            ClusterSpec(nodes=2, gpus_per_node=2, link_overrides=((0, 4, 1e9, 0.0),))

    def test_non_positive_bandwidth_override(self):
        with pytest.raises(ValueError, match="bandwidth"):
            ClusterSpec(nodes=2, gpus_per_node=2, link_overrides=((0, 1, 0.0, 0.0),))

    def test_negative_latency_override(self):
        with pytest.raises(ValueError, match="latency"):
            ClusterSpec(nodes=2, gpus_per_node=2, link_overrides=((0, 1, 1e9, -1.0),))


class TestClusterSpecAccessors:
    def test_uniform_defaults(self):
        spec = ClusterSpec(nodes=2, gpus_per_node=2)
        assert spec.is_uniform
        assert spec.speed_vector() == (1.0,) * 4
        assert spec.memory_vector() == (spec.memory_bytes,) * 4
        # multiplying by the uniform speed 1.0 is exact
        assert spec.peak_flops_of(3) == spec.peak_flops
        assert spec.link_params(0, 1) == (
            spec.intra_node_bandwidth,
            spec.intra_node_latency,
        )
        assert spec.link_params(1, 2) == (
            spec.inter_node_bandwidth,
            spec.inter_node_latency,
        )

    def test_bandwidth_matrix_shape(self):
        spec = ClusterSpec(nodes=2, gpus_per_node=2)
        matrix = spec.bandwidth_matrix()
        assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
        for i in range(4):
            assert matrix[i][i] == float("inf")
        assert matrix[0][1] == spec.intra_node_bandwidth
        assert matrix[1][2] == spec.inter_node_bandwidth

    def test_link_override_is_directional(self):
        spec = ClusterSpec(
            nodes=2, gpus_per_node=2, link_overrides=((1, 2, 7.0, 0.5),)
        )
        assert not spec.is_uniform
        assert spec.link_params(1, 2) == (7.0, 0.5)
        # the reverse direction keeps its class-derived parameters
        assert spec.link_params(2, 1) == (
            spec.inter_node_bandwidth,
            spec.inter_node_latency,
        )

    def test_hetero_accessors(self):
        spec = ClusterSpec(
            nodes=2,
            gpus_per_node=2,
            device_speed=(1.0, 0.5, 0.25, 1.0),
            device_memory_bytes=(10, 20, 30, 40),
        )
        assert spec.speed_of(1) == 0.5
        assert spec.peak_flops_of(2) == spec.peak_flops * 0.25
        assert spec.memory_bytes_of(3) == 40
        assert spec.node_of(1) == 0 and spec.node_of(2) == 1

    def test_no_self_links(self):
        spec = ClusterSpec(nodes=2, gpus_per_node=2)
        with pytest.raises(ValueError, match="self-link"):
            spec.link_params(2, 2)


class TestHeteroVariants:
    def test_variant_names(self):
        assert hetero_variant_names() == ("mixed-gen", "straggler-node", "asym-links")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown hetero variant"):
            hetero_variant("quantum-annealer")

    def test_mixed_gen_shape(self):
        spec = hetero_variant("mixed-gen")
        assert spec.num_devices == 4
        assert spec.speed_vector() == (1.0, 1.0, 0.5, 0.5)
        mem = spec.memory_vector()
        assert mem[0] == mem[1] == spec.memory_bytes
        assert mem[2] == mem[3] == int(spec.memory_bytes * 0.75)

    def test_straggler_node_shape(self):
        spec = hetero_variant("straggler-node")
        assert spec.speed_vector() == (1.0, 0.4, 1.0, 1.0)
        assert spec.memory_vector() == (spec.memory_bytes,) * 4

    def test_asym_links_shape(self):
        spec = hetero_variant("asym-links")
        base = ClusterSpec(nodes=2, gpus_per_node=2)
        slow_bw, slow_lat = spec.link_params(1, 2)
        assert slow_bw == base.inter_node_bandwidth / 5.0
        assert slow_lat == base.inter_node_latency * 4.0
        assert spec.link_params(2, 1) == (slow_bw, slow_lat)
        # the healthy cross-node links are untouched
        assert spec.link_params(0, 3) == (
            base.inter_node_bandwidth,
            base.inter_node_latency,
        )

    def test_asym_links_needs_four_devices(self):
        with pytest.raises(ValueError, match=">= 4 devices"):
            hetero_variant("asym-links", base=ClusterSpec(nodes=1, gpus_per_node=2))


class TestUniformBitIdentity:
    """Explicit trivial heterogeneity == the uniform defaults, bitwise."""

    @staticmethod
    def _run(spec, placement):
        cal = calibration_for("awd")
        costs = cal.layer_costs()
        profiler = Profiler(
            layer_costs=costs,
            partition=cal.partition(costs),
            schedule=AdvanceFPSchedule(2),
            cluster_spec=spec,
            batch_size=cal.batch_size,
            activation_byte_scale=cal.activation_byte_scale,
            param_byte_scale=cal.param_byte_scale,
            stash_multiplier=cal.stash_multiplier,
            optimizer_state_factor=cal.optimizer_state_factor,
            with_reference_model=True,
            placement=placement,
        )
        result = profiler.run_setting(4, 1, iterations=1)
        return result.batch_time, tuple(result.peak_memory)

    def test_explicit_unit_spec_is_bitwise_identical(self):
        cal = calibration_for("awd")
        base = cal.cluster_spec()
        explicit = dataclasses.replace(
            base,
            device_speed=(1.0,) * base.num_devices,
            device_memory_bytes=(base.memory_bytes,) * base.num_devices,
        )
        assert not explicit.is_uniform  # explicit per-device vectors of the same values
        t_base, mem_base = self._run(base, None)
        t_explicit, mem_explicit = self._run(explicit, tuple(range(base.num_devices)))
        assert t_base == t_explicit  # bitwise, not approx
        assert mem_base == mem_explicit

    def test_identity_placement_is_bitwise_identical(self):
        cal = calibration_for("awd")
        base = cal.cluster_spec()
        t_none, mem_none = self._run(base, None)
        t_id, mem_id = self._run(base, tuple(range(base.num_devices)))
        assert t_none == t_id
        assert mem_none == mem_id


class TestPlacementValidation:
    def test_placement_must_be_a_permutation(self):
        cal = calibration_for("awd")
        costs = cal.layer_costs()
        with pytest.raises(ValueError, match="permutation"):
            Profiler(
                layer_costs=costs,
                partition=cal.partition(costs),
                schedule=AdvanceFPSchedule(2),
                cluster_spec=cal.cluster_spec(),
                batch_size=cal.batch_size,
                placement=(0, 0, 1, 2),
            )

    def test_placement_length_must_match_stages(self):
        cal = calibration_for("awd")
        costs = cal.layer_costs()
        with pytest.raises(ValueError, match="placement"):
            Profiler(
                layer_costs=costs,
                partition=cal.partition(costs),
                schedule=AdvanceFPSchedule(2),
                cluster_spec=cal.cluster_spec(),
                batch_size=cal.batch_size,
                placement=(0, 1, 2),
            )


class TestHeteroExperimentSmoke:
    """Acceptance criterion: both strategies beat uniform on every variant."""

    @pytest.fixture(scope="class")
    def data(self):
        return run_hetero(("gnmt",), num_micro=4, iterations=1)

    def test_row_grid_is_complete(self, data):
        rows = data["rows"]
        assert len(rows) == len(hetero_variant_names()) * len(STRATEGY_ORDER)
        assert not any(r.oom for r in rows)

    def test_uniform_speedup_is_one(self, data):
        for variant in hetero_variant_names():
            assert data["speedup"][("gnmt", variant, "uniform-partition")] == 1.0

    def test_balanced_beats_uniform_on_every_variant(self, data):
        for variant in hetero_variant_names():
            assert data["speedup"][("gnmt", variant, "balanced")] > 1.0, variant

    def test_joint_search_beats_uniform_on_every_variant(self, data):
        for variant in hetero_variant_names():
            assert data["speedup"][("gnmt", variant, "balanced+placement")] > 1.0, variant

    def test_placement_is_the_lever_on_asym_links(self, data):
        # partitioning alone cannot fix a congested wire; the placement
        # pass must route around it and win by a clear margin
        balanced = data["speedup"][("gnmt", "asym-links", "balanced")]
        joint = data["speedup"][("gnmt", "asym-links", "balanced+placement")]
        assert joint > balanced


class TestFuzzerHetero:
    def test_draws_are_reproducible(self):
        assert fuzz_configs(30, seed=7) == fuzz_configs(30, seed=7)

    def test_hetero_axis_is_exercised(self):
        configs = fuzz_configs(60, seed=7)
        kinds = {cfg.hetero for cfg in configs}
        assert kinds == {"none", "speeds", "memory", "both"}
        for cfg in configs:
            if cfg.hetero in ("speeds", "both"):
                assert len(cfg.device_speed) == cfg.num_stages
                assert all(0.4 <= s <= 1.0 for s in cfg.device_speed)
            else:
                assert cfg.device_speed == ()

    @staticmethod
    def _first(configs, predicate):
        for cfg in configs:
            if predicate(cfg):
                return cfg
        raise AssertionError("no matching fuzz config in the sample")

    def test_hetero_memory_oom_case_ooms(self):
        configs = fuzz_configs(60, seed=7)
        cfg = self._first(
            configs,
            lambda c: c.hetero in ("memory", "both") and c.memory_regime == "oom",
        )
        result = run_case(SIM_AXIS, cfg)
        assert result.ok, result.problems
        assert result.tallies["oom"] == 1

    def test_hetero_speeds_fit_case_completes(self):
        configs = fuzz_configs(60, seed=7)
        cfg = self._first(
            configs,
            lambda c: c.hetero == "speeds" and c.memory_regime == "fits",
        )
        result = run_case(SIM_AXIS, cfg)
        assert result.ok, result.problems
        assert result.tallies["oom"] == 0
