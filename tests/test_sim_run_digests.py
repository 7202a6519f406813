"""Whole-run digests of the simulated executors.

Each case runs one simulated training job end to end and hashes
everything it observably produced:

* every :class:`~repro.schedules.executor.SimIterationResult` field but
  the recorder (batch and total time, Equation-1 decomposition, comm
  time, memory, utilization, curves, timeline, OOM);
* every trace span (device, start, end, kind, label, pipeline, stage,
  micro), in recording order;
* every device's and every link's ``utilization_steps``.

Floats enter the hash as ``float.hex``, so a pin fails on a one-ulp
change anywhere.  The cases cover the schedules (AFAB, 1F1B,
Advance-FP, PipeDream, Chimera, interleaved virtual stages, data
parallel), N in {1, 3, 4}, a heterogeneous cluster with a permuted
placement, two placements in one run, activation recompute, an OOM
mid-run (also one that only some pipelines hit), and fault runs that
freeze and unfreeze devices and links, change capacities and crash a
pipeline.

Regenerate after an intended change of simulated behaviour with
``PYTHONPATH=src python tests/test_sim_run_digests.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph import LayerCost
from repro.resilience import FaultEvent, FaultInjector, FaultPlan
from repro.schedules import (
    AFABSchedule,
    AdvanceFPSchedule,
    OneFOneBSchedule,
    PipeDreamSchedule,
    PipelineSimRunner,
    StageCosts,
)
from repro.schedules.chimera import simulate_chimera
from repro.schedules.data_parallel import DataParallelSimRunner
from repro.schedules.interleaved import simulate_interleaved
from repro.sim import ClusterSpec, Simulator, hetero_variant, make_cluster

GIB = 2**30


def _encode(value) -> str:
    """Canonical text of a result value; floats as their exact hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_encode(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return f"nd{value.shape}{value.dtype}:{value.tobytes().hex()}"
    if isinstance(value, BaseException):
        return f"{type(value).__name__}({value})"
    return repr(value)


_RESULT_FIELDS = (
    "batch_time", "total_time", "iterations", "num_stages", "num_micro",
    "num_pipelines", "decomposition", "comm_sent_time", "peak_memory",
    "weight_memory", "reference_memory", "data_memory_peak",
    "avg_utilization", "utilization_curves", "timeline", "oom",
)


def digest(result, trace, cluster) -> str:
    h = hashlib.sha256()
    for name in _RESULT_FIELDS:
        h.update(f"{name}={_encode(getattr(result, name))}\n".encode())
    for s in trace.spans:
        h.update(
            _encode((s.device, s.start, s.end, s.kind.value, s.label,
                     s.pipeline, s.stage, s.micro)).encode() + b"\n"
        )
    for dev in cluster.devices:
        h.update(f"gpu{dev.index}:{_encode(dev.compute.utilization_steps)}\n".encode())
    for key in sorted(cluster._links):
        steps = cluster._links[key].pipe.utilization_steps
        h.update(f"link{key}:{_encode(steps)}\n".encode())
    return h.hexdigest()


# --------------------------------------------------------------------- #
# cases


def _cluster(k=6, spec=None, memory=8 * GIB):
    sim = Simulator()
    if spec is None:
        spec = ClusterSpec(nodes=k // 2, gpus_per_node=2, memory_bytes=memory)
    return make_cluster(sim, spec=spec)


def _costs(k=6, fwd=None, act=2.0e6):
    fwd = fwd or tuple(4.0e6 * (1.0 + 0.25 * (i % 3)) for i in range(k))
    return StageCosts(
        fwd_flops=tuple(fwd),
        act_out_bytes=(act,) * k,
        stash_bytes=(3 * act,) * k,
        param_bytes=(1_000_000,) * k,
    )


def _layers(n=12):
    return [
        LayerCost(f"l{i}", flops_per_sample=2.0e6 * (1 + i % 4),
                  activation_bytes_per_sample=1.0e6, param_bytes=500_000)
        for i in range(n)
    ]


def _pipeline(schedule, *, k=6, pipelines=1, micro=8, iterations=2, spec=None,
              device_map=None, faults=(), costs=None, memory=8 * GIB, **kwargs):
    cluster = _cluster(k, spec=spec, memory=memory)
    runner = PipelineSimRunner(
        cluster, schedule, costs or _costs(k), num_micro=micro, mb_size=8.0,
        num_pipelines=pipelines, device_map=device_map, **kwargs,
    )
    if faults:
        FaultInjector(cluster.sim, cluster, runner=runner, trace=runner.trace).install(
            FaultPlan(events=list(faults))
        )
    result = runner.run(iterations=iterations, render_timeline=True)
    return result, runner.trace, cluster


def _chimera():
    cluster = _cluster()
    result = simulate_chimera(cluster, _costs(), num_micro=8, mb_size=8.0, iterations=2)
    return result, result.trace, cluster


def _interleaved():
    cluster = _cluster()
    result = simulate_interleaved(cluster, _layers(), num_micro=8, mb_size=4.0,
                                  virtual_factor=2, iterations=2)
    return result, result.trace, cluster


def _data_parallel():
    cluster = _cluster()
    runner = DataParallelSimRunner(cluster, _layers(), batch_size=48)
    result = runner.run(iterations=2)
    return result, runner.trace, cluster


CASES = {
    "afab-n1": lambda: _pipeline(AFABSchedule(), record_utilization=True),
    "afab-n3-reference": lambda: _pipeline(
        AFABSchedule(), pipelines=3, with_reference_model=True, record_utilization=True),
    "1f1b-n1": lambda: _pipeline(OneFOneBSchedule(versions=1)),
    "1f1b-n3": lambda: _pipeline(OneFOneBSchedule(versions=2), pipelines=3),
    "advance-n3": lambda: _pipeline(AdvanceFPSchedule(2), pipelines=3),
    "pipedream-n1": lambda: _pipeline(PipeDreamSchedule(), iterations=3),
    "pipedream-oom": lambda: _pipeline(
        PipeDreamSchedule(), pipelines=3, micro=16, memory=int(0.05 * GIB)),
    "chimera": _chimera,
    "interleaved": _interleaved,
    "data-parallel": _data_parallel,
    "hetero-placement-n3": lambda: _pipeline(
        OneFOneBSchedule(versions=1), k=4, pipelines=3,
        spec=hetero_variant("mixed-gen"), costs=_costs(4),
        device_map=[[2, 0, 3, 1]] * 3),
    "asym-links-afab": lambda: _pipeline(
        AFABSchedule(), k=4, spec=hetero_variant("asym-links"), costs=_costs(4)),
    "recompute-n3": lambda: _pipeline(
        AdvanceFPSchedule(3), pipelines=3, activation_recompute=True),
    "fault-device-crash": lambda: _pipeline(
        OneFOneBSchedule(versions=1), pipelines=3, faults=(
            FaultEvent("device_crash", 0.5, 2, duration=0.7),
            FaultEvent("device_slowdown", 0.3, 4, duration=1.1, factor=3.0),
        )),
    "fault-links": lambda: _pipeline(
        AFABSchedule(), pipelines=3, faults=(
            FaultEvent("link_partition", 0.4, (1, 2), duration=0.6),
            FaultEvent("link_degrade", 0.2, (3, 4), duration=1.5, factor=4.0),
            FaultEvent("link_degrade", 1.0, (4, 3), duration=0.9, factor=2.0),
        )),
    "fault-pipeline-crash": lambda: _pipeline(
        OneFOneBSchedule(versions=1), pipelines=3, iterations=3, faults=(
            FaultEvent("pipeline_crash", 0.9, 1),
            FaultEvent("device_slowdown", 0.6, 0, duration=0.8, factor=2.0),
        )),
    # Lockstep groups (executor.lockstep_groups): later members of a
    # group fail their stash allocation and leave it; a planned crash
    # splits {0, 1} from {2}; two placements give two groups of two.
    "oom-edge-n4": lambda: _pipeline(
        AFABSchedule(), k=4, pipelines=4, costs=_costs(4), memory=52_000_000),
    "fault-crash-last-n3": lambda: _pipeline(
        OneFOneBSchedule(versions=1), pipelines=3, iterations=3, faults=(
            FaultEvent("pipeline_crash", 0.9, 2),
            FaultEvent("link_degrade", 0.5, (2, 3), duration=0.6, factor=3.0),
        )),
    "two-groups-n4": lambda: _pipeline(
        AdvanceFPSchedule(2), k=4, pipelines=4, costs=_costs(4),
        device_map=[[0, 1, 2, 3]] * 2 + [[3, 2, 1, 0]] * 2),
}

#: Generated before the executor's event-loop changes; see the module
#: docstring for how to regenerate.  The last three were generated
#: before pipelines were simulated in lockstep groups.
EXPECTED = {
    "1f1b-n1": "2322a5ac0599846fcc8ef8abe95ebd1fb0d53ccc2c004d90b1ce9f8b1b883fd6",
    "1f1b-n3": "346aa99d80d0008d946819d5640d0e91bb2e8e7b404fd5f38579494cb4e24cde",
    "advance-n3": "27e0be4c49b8f5843ab80eec3ba6d0b801958ce2dc47d737995f305bc3c20910",
    "afab-n1": "08e59dbd8d368c5b97f2ea0249f1905515a6332b018ecae4cf7ffeb4a6dacf0b",
    "afab-n3-reference": "221b24040ad0a34d33610150ca298526f1e03a4b3ed1cf02c0f441e6d4457601",
    "asym-links-afab": "2a8d279c108feacd9dba35849c7cc4311209fdc37aac039eba580e735413a9dd",
    "chimera": "0cdbb25cff701c936b04b87875c84630cea999917a1f26aa910382dcc2aeb05a",
    "data-parallel": "7a1c8220a6a28903fe769e16beafbb6bc92d15297b0575724a8c7fd5c2fea7bf",
    "fault-device-crash": "006375040bf37d1e7094c475224d51d6eaf11891b548eb34c3f558262bd51571",
    "fault-links": "f7ef43af90d4575e34ce5fe43f9cb28ff3f11bce9372fc16376571f25e4a5312",
    "fault-pipeline-crash": "648bf5d8b63c50abc4151f63a5cf72c8bf81f8f97913e2163670a58196f9d8fd",
    "hetero-placement-n3": "1ca154ed202446a392b7d1177f62c67cfab8fd7feb90dbb23926c4771e6f5f21",
    "interleaved": "f7d5823bcc9a7a669324e45af00187ccf1741a349d8648804d1ab28c87fdc057",
    "pipedream-n1": "e888bb30f31359dc087ebb1da2f06b3c1c097aa485637a979d4b05b56b4d4f29",
    "pipedream-oom": "b5451269ca3c10de4546967ed1c27005fb8fb0f9c9276f4ab73175169182f3e7",
    "recompute-n3": "bb737cd2dfb902cacaf8be0e3ca63eb526f3bd0d59b9c5073427bc84b62244dd",
    "oom-edge-n4": "cb61a8fdfdb2606e5d75c5faeb6f3df9f37f31459d6443a66f3500e5e4ac62e6",
    "fault-crash-last-n3": "3efa59a4c33ab6d2f7eff77df9a2cf512a07f8b8151d4f4a877081896ad3958a",
    "two-groups-n4": "80465a1d29c8413ffbc5f232173a68a24f8686e0d59b14d484aef56f075c78d4",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_whole_run_digest(case):
    assert digest(*CASES[case]()) == EXPECTED[case]


def test_cases_exercise_what_they_claim():
    assert CASES["pipedream-oom"]()[0].oom is not None
    for case in ("fault-device-crash", "fault-links"):
        assert any(s.kind.value == "fault" for s in CASES[case]()[1].spans), case
    # 3 pipelines x 6 stages x 8 micro-batches x 3 iterations uncrashed
    result, trace, _ = CASES["fault-pipeline-crash"]()
    assert result.oom is None
    assert sum(s.kind.value == "fwd" for s in trace.spans) < 3 * 6 * 8 * 3
    # Pipelines 0 and 1 run on after 2 and 3 fail their stash allocation.
    result, trace, _ = CASES["oom-edge-n4"]()
    fwd = [sum(s.kind.value == "fwd" and s.pipeline == p for s in trace.spans)
           for p in range(4)]
    assert result.oom is not None and fwd[0] == fwd[1] > fwd[2] == fwd[3] > 0


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(*CASES[name]())}",')
