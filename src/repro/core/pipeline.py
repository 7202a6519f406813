"""Stage-sliced pipeline execution with real numerics.

Most trainers in :mod:`repro.core.trainer` run whole-model passes and
emulate each system's update semantics at the weight level.  This module
executes the pipeline *faithfully* (``PipeDreamTrainer`` always runs
here, ``AvgPipeTrainer`` when given a partition): the model is cut by a
:class:`~repro.graph.partitioner.Partition`, each stage runs only its own
layers, activations crossing a cut are detached into fresh autograd
leaves (exactly what shipping a tensor to another device does), and
backward flows stage by stage as gradient bundles.

Synchronous schedules run the batch in groups of micro-batches stacked
on a leading axis, each group forward through every stage and then
backward (see :meth:`PipelinedRunner.run_batch`); the group size comes
from the schedule's stash bound, so the runner never holds more
micro-batches than the schedule would.  PipeDream runs its op streams
micro-batch by micro-batch, with per-micro-batch updates and weight
stashing.

Guarantees (tested in ``tests/test_core_pipeline.py`` and
``tests/test_pipeline_schedule_pins.py``):

* synchronous schedules (AFAB, 1F1B, advance-FP) produce the *same* loss
  and the same updated weights as a whole-model pass over the same batch
  (up to float accumulation order), and bit for bit the same as one
  micro-batch at a time in schedule order;
* PipeDream mode computes each micro-batch's gradient under the weight
  version its forward used (its stashed graph holds those arrays), then
  applies it to the latest weights — the staleness semantics of
  §2/Figure 3b — unscaled and clipped per stage (docs/schedules.md).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.graph.partitioner import Partition
from repro.models.pipeline_model import PipelineLayer, PipelineModel
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer
from repro.schedules.base import Schedule, StageOp
from repro.tensor import Tensor, micro_count, micro_stack

__all__ = ["StageRuntime", "PipelinedRunner"]


def _is_float_tensor(value) -> bool:
    return isinstance(value, Tensor) and value.dtype.kind == "f"


class StageRuntime(Module):
    """Executes one contiguous slice of a pipeline model.

    Holds the stash of forwards awaiting their backward (input leaves,
    output tensors and the number of micro-batches stacked in them; the
    graph also holds the weights its forward read) and the stage's
    parameters.  The slice's layers are child modules named
    ``stage{k}.layer{i}``, so parameter names stay unique across the
    stages of one model.
    """

    def __init__(self, layers: Sequence[PipelineLayer], stage_index: int, num_stages: int) -> None:
        if not layers:
            raise ValueError("a stage needs at least one layer")
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            setattr(self, f"stage{stage_index}.layer{i}", layer)
        self.stage_index = stage_index
        self.num_stages = num_stages
        self.is_first = stage_index == 0
        self.is_last = stage_index == num_stages - 1
        #: micro-batch (or group) id -> (input leaves by key, output
        #: tensors by key, stacked micro-batch count; 0 when unstacked)
        self._stash: dict[int, tuple[dict[str, Tensor], dict[str, Tensor], int]] = {}

    def forward(self, micro: int, bundle_in: Mapping) -> dict:
        """Run the stage's layers on one micro-batch, or on a stacked group
        of them when called inside ``micro_stack``.

        Incoming float tensors are detached into fresh leaves (the cut
        boundary).  Returns the outgoing bundle as plain data (ndarrays),
        ready to "ship".  The autograd graph and the leaves stay stashed
        under ``micro`` until :meth:`backward` releases them.
        """
        if micro in self._stash:
            raise RuntimeError(f"stage {self.stage_index}: micro {micro} already in flight")

        leaves: dict[str, Tensor] = {}
        bundle: dict = {}
        for key, value in bundle_in.items():
            if isinstance(value, Tensor) or (
                isinstance(value, np.ndarray) and value.dtype.kind == "f"
            ):
                data = value.data if isinstance(value, Tensor) else value
                leaf = Tensor(np.ascontiguousarray(data), requires_grad=not self.is_first)
                leaves[key] = leaf
                bundle[key] = leaf
            else:
                bundle[key] = value  # integer tokens/labels pass through
        for layer in self.layers:
            bundle = layer(bundle)

        outputs: dict[str, Tensor] = {k: v for k, v in bundle.items() if _is_float_tensor(v)}
        self._stash[micro] = (leaves, outputs, micro_count())

        shipped: dict = {}
        for key, value in bundle.items():
            shipped[key] = value.data if isinstance(value, Tensor) else value
        return shipped

    def backward(self, micro: int, grad_bundle: Mapping[str, np.ndarray] | None) -> dict[str, np.ndarray]:
        """Backward for one stashed micro-batch or stacked group.

        ``grad_bundle`` maps output keys to gradients (None only on the
        last stage, whose ``loss`` output seeds the backward).  Returns
        gradients for this stage's float inputs, keyed like the incoming
        bundle — the payload shipped upstream.

        Parameter gradients accumulate on the stage's parameters in the
        order one backward per micro-batch would add them: the engine
        sums a parameter's graph sites within one backward call, and each
        call (one per output key) adds its total to ``.grad``.  For a
        stacked group every call returns a per-micro-batch stack, and
        the stacks are folded in (micro-batch, output key) order.
        """
        if micro not in self._stash:
            raise RuntimeError(f"stage {self.stage_index}: no stashed forward for micro {micro}")
        leaves, outputs, count = self._stash.pop(micro)

        params = list(self.parameters())
        totals = [p.grad for p in params]
        # Per backward call, each parameter's (micro-batch, ...) stack of
        # that call's totals; an unstacked call is a stack of one.
        calls: list[list[np.ndarray | None]] = []

        def run(out: Tensor, grad: np.ndarray) -> None:
            for p in params:
                p.grad = None
            out.backward(grad)
            calls.append([
                None if p.grad is None else p.grad if count else p.grad[None] for p in params
            ])

        if self.is_last:
            if "loss" not in outputs:
                raise RuntimeError("last stage produced no 'loss'")
            loss = outputs["loss"]
            run(loss, np.ones_like(loss.data))
        else:
            if grad_bundle is None:
                raise ValueError("inner stages need a gradient bundle")
            for key, grad in grad_bundle.items():
                out = outputs.get(key)
                if out is None or not out.requires_grad:
                    continue
                run(out, np.asarray(grad, dtype=out.dtype))

        for m in range(count or 1):
            for call in calls:
                for i, stack in enumerate(call):
                    if stack is not None:
                        totals[i] = stack[m] if totals[i] is None else totals[i] + stack[m]
        for p, total in zip(params, totals):
            p.grad = total

        return {
            key: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for key, leaf in leaves.items()
            if leaf.requires_grad
        }


class PipelinedRunner:
    """Drives a whole pipeline through one batch under a schedule.

    This serializes what a cluster runs concurrently, which is exactly
    what we want here — the *numerics* of the schedule without its
    timing (the simulator owns timing, from the schedule's op streams).

    ``optimizer_factory`` is called with each :class:`StageRuntime` (a
    ``Module``, like a workload's ``make_optimizer`` takes).  ``grad_clip``
    clips each stage optimizer's gradient norm before its step, so it
    needs ``optimizer_factory``.  Without stage optimizers a synchronous
    runner leaves the scaled gradients for the caller to step; an
    asynchronous schedule steps (and zeroes) each stage per micro-batch,
    so it needs ``optimizer_factory`` too.
    """

    def __init__(
        self,
        model: PipelineModel,
        partition: Partition,
        schedule: Schedule,
        optimizer_factory: Callable[[Module], Optimizer] | None = None,
        grad_clip: float | None = None,
    ) -> None:
        if partition.num_stages < 1:
            raise ValueError("need at least one stage")
        if partition.boundaries[-1] != len(model.layers):
            raise ValueError(
                f"partition covers {partition.boundaries[-1]} layers, model has {len(model.layers)}"
            )
        if grad_clip is not None and optimizer_factory is None:
            raise ValueError(
                "PipelinedRunner: grad_clip= needs optimizer_factory=; "
                "without stage optimizers nothing would clip"
            )
        if optimizer_factory is None and not schedule.sync_at_batch_end:
            raise ValueError(
                f"PipelinedRunner: {schedule.name!r} updates per micro-batch, so it "
                "needs optimizer_factory=; without it every gradient would be dropped"
            )
        self.model = model
        self.partition = partition
        self.schedule = schedule
        self.stages = [
            StageRuntime(model.slice_layers(lo, hi), k, partition.num_stages)
            for k, (lo, hi) in enumerate(
                partition.span(k) for k in range(partition.num_stages)
            )
        ]
        self.grad_clip = grad_clip
        if optimizer_factory is None:
            self.stage_optimizers = None
        else:
            self.stage_optimizers = [optimizer_factory(stage) for stage in self.stages]

    # ------------------------------------------------------------------ #

    def group_size(self, num_micro: int) -> int:
        """Micro-batches per stacked group of a synchronous batch:
        ⌊Σₖ stash_bound(k) / K⌋, at least one.  A group holds its G
        micro-batches on all K stages at once, so K·G never exceeds what
        the schedule itself keeps stashed across the pipeline."""
        K = self.partition.num_stages
        bound = sum(self.schedule.stash_bound(k, K, num_micro) for k in range(K))
        return max(1, bound // K)

    def run_batch(self, micro_batches: Sequence[Mapping[str, np.ndarray]]) -> float:
        """Execute one batch of micro-batches under the schedule.

        Returns the mean loss over micro-batches.

        Synchronous schedules (``sync_at_batch_end``) run consecutive
        groups of :meth:`group_size` micro-batches.  A group's inputs are
        stacked on a new leading axis and go forward once through stages
        0..K−1 inside ``micro_stack``, then backward once through
        K−1..0.  Given the weights the micro-batches are independent, so
        every schedule's interleaving gives the same numerics: each
        parameter's gradients fold in micro-batch order and each module
        draws its RNG micro-batch major, as one micro-batch at a time in
        schedule order would.  Parameter gradients are left accumulated
        (scaled by 1/M) and, if optimizers were provided, one step is
        applied per stage.

        Asynchronous schedules update each stage right after each
        micro-batch's backward, using weight stashing, so they run the
        schedule's op streams micro-batch by micro-batch.  Each update
        steps on that one micro-batch's gradient, unscaled.
        """
        if not micro_batches:
            raise ValueError("empty batch")
        for stage in self.stages:
            stage.zero_grad()
        if not self.schedule.sync_at_batch_end:
            return float(np.mean(self._sweep(micro_batches)))
        losses = self._run_groups(micro_batches)
        self._sync_step(1.0 / len(micro_batches))
        return float(np.mean(losses))

    def _run_groups(self, micro_batches: Sequence[Mapping[str, np.ndarray]]) -> list[float]:
        """Stacked forward then backward per group; the per-micro losses."""
        size = self.group_size(len(micro_batches))
        losses: list[float] = []
        for first in range(0, len(micro_batches), size):
            group = micro_batches[first : first + size]
            bundle: dict = {key: np.stack([mb[key] for mb in group]) for key in group[0]}
            with micro_stack(len(group)):
                for stage in self.stages:
                    bundle = stage.forward(first, bundle)
            loss = np.asarray(bundle["loss"])
            if loss.shape != (len(group),):
                raise ValueError(
                    f"the loss head returned shape {loss.shape} for {len(group)} stacked "
                    "micro-batches; under micro_stack it must return one loss per micro-batch"
                )
            losses.extend(float(v) for v in loss)
            grads = None
            for stage in reversed(self.stages):
                grads = stage.backward(first, grads)
        return losses

    def _sweep(self, micro_batches: Sequence[Mapping[str, np.ndarray]]) -> list[float]:
        """The asynchronous path: run the op streams in a deterministic
        dependency-driven sweep.  Repeatedly scan the stages and run each
        stage's next op once its input (an activation from upstream or a
        gradient from downstream) is available; each backward is followed
        by that stage's update.  A scan that runs nothing leaves the state
        as it found it, so every later scan would too: the streams are
        deadlocked."""
        num_micro = len(micro_batches)
        K = self.partition.num_stages
        streams: list[list[StageOp]] = [
            self.schedule.stage_ops(k, K, num_micro) for k in range(K)
        ]
        cursors = [0] * K
        acts: dict[tuple[int, int], dict] = {}  # (stage, micro) -> incoming bundle
        grads: dict[tuple[int, int], dict] = {}  # (stage, micro) -> grad bundle
        losses: dict[int, float] = {}

        for micro, mb in enumerate(micro_batches):
            acts[(0, micro)] = dict(mb)

        total_ops = sum(len(s) for s in streams)
        executed = 0
        while executed < total_ops:
            progressed = False
            for k in range(K):
                if cursors[k] >= len(streams[k]):
                    continue
                op = streams[k][cursors[k]]
                if op.kind == "fwd":
                    key = (k, op.micro)
                    if key not in acts:
                        continue
                    bundle_in = acts.pop(key)
                    shipped = self.stages[k].forward(op.micro, bundle_in)
                    if k < K - 1:
                        acts[(k + 1, op.micro)] = shipped
                    else:
                        losses[op.micro] = float(np.asarray(shipped["loss"]).reshape(-1)[0])
                else:  # bwd
                    if k < K - 1 and (k, op.micro) not in grads:
                        continue
                    grad_in = grads.pop((k, op.micro), None)
                    grad_out = self.stages[k].backward(op.micro, grad_in)
                    if k > 0:
                        grads[(k - 1, op.micro)] = grad_out
                    self._step_stage(k)
                cursors[k] += 1
                executed += 1
                progressed = True
            if not progressed:
                raise RuntimeError("pipeline op streams deadlocked")
        return [losses[i] for i in range(num_micro)]

    # ------------------------------------------------------------------ #

    def _sync_step(self, scale: float) -> None:
        for stage in self.stages:
            for p in stage.parameters():
                if p.grad is not None:
                    p.grad = p.grad * scale
        if self.stage_optimizers is None:
            return
        for k in range(len(self.stages)):
            self._step_stage(k)

    def _step_stage(self, k: int) -> None:
        """Clip, step and zero stage ``k``: PipeDream's immediate update
        of one micro-batch, or a synchronous batch's one step."""
        opt = self.stage_optimizers[k]
        if self.grad_clip is not None:
            opt.clip_grad_norm(self.grad_clip)
        opt.step()
        self.stages[k].zero_grad()
