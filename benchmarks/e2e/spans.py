"""Wall-clock layer spans for the end-to-end benchmark.

A :class:`Tracer` replaces the public callables at each layer boundary
with thin wrappers that record one span per call (name, start, end,
parent span, pass id) in memory, and restores every original on exit.
Nothing under ``src/`` changes: the wrappers live here and are only
installed for the traced passes, so the untraced passes that produce the
end-to-end metrics run the bare code.

A layer's *self time* is its spans' duration minus the part covered by
their direct children; summed over all layers it equals the time spent
inside top-level spans, and the rest of a pass's wall time is reported
as unattributed (the benchmark's own loop and checks).
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
from collections import Counter, defaultdict

#: span names, in the order layers.json and the metric table list them
LAYERS = (
    "core.trainer.loop",
    "data.loader",
    "data.split",
    "models.forward",
    "tensor.backward",
    "core.pipeline.dispatch",
    "core.pipeline.stage_fwd",
    "core.pipeline.stage_bwd",
    "optim.step",
    "optim.clip",
    "core.elastic.capture",
    "core.elastic.commit",
    "core.elastic.end_iteration",
    "eval",
    "core.checkpoint.save",
    "core.checkpoint.load",
    "core.tuner.tune",
    "core.profiler.profile",
    "core.profiler.run_setting",
    "core.predictor.predict",
    "sim.run",
    "schedules.stage_ops",
    "schedules.adaptive.tune",
    "graph.partition",
    "graph.placement",
    "sched.run",
    "sched.plan_chain",
)

_MISSING = object()


def _float_bytes(bundle) -> int:
    """Bytes of the floating-point arrays in a shipped bundle."""
    total = 0
    for value in bundle.values():
        dtype = getattr(value, "dtype", None)
        if dtype is not None and dtype.kind == "f":
            total += value.nbytes
    return total


class Tracer:
    """In-memory span recorder plus the layer patch table.

    Use as a context manager: entering installs every wrapper, leaving
    restores the originals (also on error).  ``run_id`` tags the spans
    of the pass being traced.
    """

    def __init__(self) -> None:
        #: [name, start, end, parent index, run id]; parent -1 = top level
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` updates counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def timed_iter(self, name: str, fn):
        """A generator function wrapped so each ``next`` is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                yield item

        return wrapper

    # ------------------------------------------------------------------ #
    # patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def patch_targets(self) -> list[tuple[object, str]]:
        """(owner, attribute) of every wrapper currently installed."""
        return [(owner, attr) for owner, attr, _ in self._saved]

    def install(self) -> None:
        for owner, attr, wrap in _layer_table(self):
            self._patch(owner, attr, wrap(getattr(owner, attr)))

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # analysis and export

    def self_times(self) -> dict[str, list[float]]:
        """Per layer: [self seconds, calls]."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            entry = out[name]
            entry[0] += end - start - cov
            entry[1] += 1
        return dict(out)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": run,
                "args": {"span": i, "parent": parent, "run": run},
            }
            for i, (name, start, end, parent, run) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _layer_table(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every layer boundary.

    Module-level functions are patched where their callers look them up
    (``partition_model`` is imported by name into ``repro.core.simcfg``
    and ``repro.core.tuner``), so the benchmark calls ``repro.core.
    checkpoint`` functions through the module for the same reason.
    """
    import repro.core.checkpoint as checkpoint
    import repro.core.simcfg as simcfg
    import repro.core.tuner as tuner
    import repro.data.dataset as dataset
    import repro.optim as optim
    import repro.schedules.base as schedules
    import repro.sched.service as sched_service
    from repro.core.elastic import ElasticAveragingFramework
    from repro.core.pipeline import PipelinedRunner, StageRuntime
    from repro.core.predictor import Predictor
    from repro.core.profiler import Profiler
    from repro.core.trainer import AvgPipeTrainer, SyncTrainer
    from repro.models.pipeline_model import PipelineModel
    from repro.models.registry import WORKLOADS
    from repro.sched.scheduler import ClusterScheduler
    from repro.schedules.adaptive import AdaptiveAdvanceController
    from repro.sim.events import Simulator
    from repro.tensor import Tensor

    t = tracer
    counts = tracer.counts

    def span(name, after=None):
        return lambda fn: t.timed(name, fn, after)

    def count_act(result, args):
        counts["core.pipeline.act_bytes"] += _float_bytes(result)

    def count_grad(result, args):
        counts["core.pipeline.grad_bytes"] += _float_bytes(result)

    def count_round(result, args):
        framework = args[0]
        counts["core.elastic.floats"] += framework.num_parallel * sum(
            v.size for v in framework.reference.values()
        )

    def count_ckpt(result, args):
        counts["core.checkpoint.bytes"] += pathlib.Path(args[1]).stat().st_size

    def count_oom(result, args):
        counts["core.profiler.ooms"] += result.oom is not None

    def count_miss(fn):
        # JobPlanner calls plan_for_spec only when its plan cache misses
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["sched.plan_misses"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sim_run(fn):
        timed = t.timed("sim.run", fn)

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            before = sim._seq
            result = timed(sim, *args, **kwargs)
            counts["sim.events"] += sim._seq - before
            return result

        return wrapper

    def adaptive_tune(fn):
        timed = t.timed("schedules.adaptive.tune", fn)

        @functools.wraps(fn)
        def wrapper(controller, measure, *args, **kwargs):
            def probe(advance):
                counts["schedules.adaptive.probes"] += 1
                return measure(advance)

            return timed(controller, probe, *args, **kwargs)

        return wrapper

    table = [
        (AvgPipeTrainer, "train", span("core.trainer.loop")),
        (SyncTrainer, "train", span("core.trainer.loop")),
        (dataset.DataLoader, "__iter__", lambda fn: t.timed_iter("data.loader", fn)),
        (dataset, "split_microbatches", span("data.split")),
        (PipelineModel, "forward", span("models.forward")),
        (Tensor, "backward", span("tensor.backward")),
        (PipelinedRunner, "run_batch", span("core.pipeline.dispatch")),
        (StageRuntime, "forward", span("core.pipeline.stage_fwd", count_act)),
        (StageRuntime, "backward", span("core.pipeline.stage_bwd", count_grad)),
        (optim.Optimizer, "clip_grad_norm", span("optim.clip")),
        (ElasticAveragingFramework, "capture", span("core.elastic.capture")),
        (ElasticAveragingFramework, "commit", span("core.elastic.commit")),
        (ElasticAveragingFramework, "end_iteration",
         span("core.elastic.end_iteration", count_round)),
        (checkpoint, "save_trainer", span("core.checkpoint.save", count_ckpt)),
        (checkpoint, "load_trainer", span("core.checkpoint.load")),
        (tuner.ProfilingTuner, "tune", span("core.tuner.tune")),
        (Profiler, "profile", span("core.profiler.profile")),
        (Profiler, "run_setting", span("core.profiler.run_setting", count_oom)),
        (Predictor, "predict", span("core.predictor.predict")),
        (Simulator, "run_until_process", sim_run),
        (AdaptiveAdvanceController, "tune", adaptive_tune),
        (ClusterScheduler, "run", span("sched.run")),
        (sched_service.JobPlanner, "plan_chain", span("sched.plan_chain")),
        (sched_service, "plan_for_spec", count_miss),
    ]
    for module in (simcfg, tuner):
        table.append((module, "partition_model", span("graph.partition")))
        table.append((module, "search_partition_placement", span("graph.placement")))
    for cls in (optim.SGD, optim.Adam, optim.AdamW, optim.Adagrad, optim.ASGD):
        table.append((cls, "step", span("optim.step")))
    for cls in (schedules.AFABSchedule, schedules.OneFOneBSchedule,
                schedules.AdvanceFPSchedule, schedules.PipeDreamSchedule):
        table.append((cls, "stage_ops", span("schedules.stage_ops")))
    for spec in WORKLOADS.values():
        table.append((spec, "make_train_loader", span("data.loader")))
        table.append((spec, "evaluate", span("eval")))
    return table
