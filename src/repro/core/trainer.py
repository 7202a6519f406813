"""Real-numerics training loops with each system's update semantics.

These drive the statistical-efficiency comparisons (Figure 14).  Timing
is *not* modelled here (that's the simulator's job); what differs between
systems is purely how weights evolve:

* :class:`SyncTrainer` — synchronous SGD-semantics shared by PyTorch-DDP,
  GPipe and Dapple: one optimizer step per batch from the full-batch
  gradient.  (They differ in speed, not numerics.)
* :class:`PipeDreamTrainer` — multi-version asynchronous pipeline, run
  stage by stage on the :class:`~repro.core.pipeline.PipelinedRunner`
  sweep that ``repro verify`` checks: each micro-batch steps its stage,
  from gradients of weights up to K−1−k updates old on stage k.
* :class:`PipeDream2BWTrainer` — 2BW's bounded staleness: each batch's
  whole-model gradient is applied one batch late.
* :class:`AvgPipeTrainer` — the elastic-averaging framework: N parallel
  models each consume their own batch per iteration, local optimizer
  step, elastic dilution against the (async) reference, reference update
  once all N arrive.  Evaluation reads the reference model.  Its
  ``step`` / ``end_round`` / ``evaluate`` are the one implementation of
  the round; the chaos harness and the scheduler cross-check drive them
  too.

Every trainer runs the one epoch loop in ``_TrainerBase.train`` and
supplies only its per-batch update and its evaluation, so the comparison
is apples to apples: same loaders, same seeds, same gradient clipping,
same per-epoch evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.elastic import ElasticAveragingFramework
from repro.core.pipeline import PipelinedRunner
from repro.core.simcfg import calibration_for
from repro.data import dataset
from repro.models.registry import WorkloadSpec
from repro.schedules.base import AdvanceFPSchedule, PipeDreamSchedule

__all__ = [
    "TrainResult",
    "SyncTrainer",
    "PipeDreamTrainer",
    "PipeDream2BWTrainer",
    "AvgPipeTrainer",
]

GRAD_CLIP = 5.0


@dataclass
class TrainResult:
    """Outcome of one training run: epochs, target status, metric history."""
    system: str
    workload: str
    reached_target: bool
    epochs_to_target: int  # = epochs run if never reached
    epochs_run: int
    iterations: int
    metric_history: list[float] = field(default_factory=list)

    @property
    def final_metric(self) -> float:
        return self.metric_history[-1] if self.metric_history else float("nan")


class _TrainerBase:
    """The epoch loop every system shares.

    Subclasses supply the per-batch update (:meth:`_update`) and the
    metric (:meth:`evaluate`); :meth:`_reset` sets up state that lives
    for one :meth:`train` call and :meth:`_end_epoch` closes an epoch.
    """

    system = "base"

    def __init__(self, spec: WorkloadSpec, seed: int = 0, max_epochs: int = 40) -> None:
        self.spec = spec
        self.seed = seed
        self.max_epochs = max_epochs

    def _reset(self) -> None:
        pass

    def _update(self, batch: dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def _end_epoch(self) -> None:
        pass

    def evaluate(self) -> float:
        return self.spec.evaluate(self.model)

    def train(self) -> TrainResult:
        """Run up to ``max_epochs`` epochs, evaluating after each; stop at target."""
        self._reset()
        history: list[float] = []
        iterations = 0
        reached = False
        for _ in range(self.max_epochs):
            for batch in self.loader:
                self._update(batch)
                iterations += 1
            self._end_epoch()
            metric = self.evaluate()
            history.append(metric)
            if self.spec.target_reached(metric):
                reached = True
                break
        return TrainResult(
            system=self.system,
            workload=self.spec.name,
            reached_target=reached,
            epochs_to_target=len(history),
            epochs_run=len(history),
            iterations=iterations,
            metric_history=history,
        )


class SyncTrainer(_TrainerBase):
    """Synchronous full-batch-gradient training (PyTorch / GPipe / Dapple)."""

    system = "sync"

    def __init__(self, spec: WorkloadSpec, seed: int = 0, max_epochs: int = 40) -> None:
        super().__init__(spec, seed, max_epochs)
        self.model = spec.build_model().seed(seed)
        self.optimizer = spec.make_optimizer(self.model)
        self.loader = spec.make_train_loader(spec.batch_size, seed)

    def _update(self, batch: dict[str, np.ndarray]) -> None:
        self.model.zero_grad()
        self.model.loss(batch).backward()
        self.optimizer.clip_grad_norm(GRAD_CLIP)
        self.optimizer.step()


class PipeDreamTrainer(_TrainerBase):
    """PipeDream (§2, Figure 3b): each batch runs as ``num_micro``
    micro-batches through ``partition``'s stages under
    :class:`PipeDreamSchedule`, and every stage clips and steps its own
    optimizer after each backward.  ``partition`` defaults to the
    workload's calibrated cut, whose K is the paper's device count."""

    system = "pipedream"

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int = 0,
        max_epochs: int = 40,
        partition=None,
        num_micro: int = 4,
    ) -> None:
        super().__init__(spec, seed, max_epochs)
        self.model = spec.build_model().seed(seed)
        self.loader = spec.make_train_loader(spec.batch_size, seed)
        self.num_micro = num_micro
        self.runner = PipelinedRunner(
            self.model,
            partition if partition is not None else calibration_for(spec.name).partition(),
            PipeDreamSchedule(),
            optimizer_factory=spec.make_optimizer,
            grad_clip=GRAD_CLIP,
        )

    def _update(self, batch: dict[str, np.ndarray]) -> None:
        self.runner.run_batch(dataset.split_microbatches(batch, self.num_micro))


class PipeDream2BWTrainer(_TrainerBase):
    """2BW's bounded staleness: each batch's whole-model gradient is held
    back and applied after the next batch's gradient is computed.  The
    held gradient is dropped at the start of every :meth:`train` call."""

    system = "pipedream-2bw"

    def __init__(self, spec: WorkloadSpec, seed: int = 0, max_epochs: int = 40) -> None:
        super().__init__(spec, seed, max_epochs)
        self.model = spec.build_model().seed(seed)
        self.optimizer = spec.make_optimizer(self.model)
        self.loader = spec.make_train_loader(spec.batch_size, seed)

    def _reset(self) -> None:
        self._params = list(self.model.parameters())
        self._held: list[np.ndarray] | None = None

    def _update(self, batch: dict[str, np.ndarray]) -> None:
        self.model.zero_grad()
        self.model.loss(batch).backward()
        fresh = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self._params]
        if self._held is not None:
            for p, g in zip(self._params, self._held):
                p.grad = g
            self.optimizer.clip_grad_norm(GRAD_CLIP)
            self.optimizer.step()
        self._held = fresh


class AvgPipeTrainer(_TrainerBase):
    """The elastic-averaging framework over N parallel pipelines (§3.2).

    ``alpha`` and ``queue_delay`` go to
    :class:`~repro.core.elastic.ElasticAveragingFramework` unchanged;
    ``alpha=None`` is its automatic 0.5/N, renormalized on every evict
    and rejoin.

    By default each parallel model runs whole-model passes (fast, and
    equal to stage-sliced execution for synchronous schedules up to float
    accumulation order — ``tests/test_core_pipeline.py`` checks the loss
    to a relative 1e-4 and the gradients to an absolute 2e-5).  Passing
    ``partition`` switches to *faithful* execution: every model runs
    through :class:`~repro.core.pipeline.PipelinedRunner`, stage by
    stage, over ``num_micro`` micro-batches in stacked groups as deep as
    ``schedule``'s stash bound allows; the numerics are bitwise those
    of one micro-batch at a time in schedule order.  ``num_micro`` and
    ``schedule`` need a ``partition``.
    """

    system = "avgpipe"

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int = 0,
        max_epochs: int = 40,
        num_pipelines: int = 2,
        alpha: float | None = None,
        queue_delay: int = 1,
        partition=None,
        num_micro: int | None = None,
        schedule=None,
        telemetry=None,
    ) -> None:
        super().__init__(spec, seed, max_epochs)
        if num_pipelines < 1:
            raise ValueError("num_pipelines must be >= 1")
        if partition is None:
            # Whole-model passes have no micro-batches and no op order.
            for arg, value in (("num_micro", num_micro), ("schedule", schedule)):
                if value is not None:
                    raise ValueError(
                        f"AvgPipeTrainer: {arg}= needs partition=; "
                        "whole-model passes would ignore it"
                    )
        if schedule is not None and not schedule.sync_at_batch_end:
            # An async schedule updates (and zeroes) each stage's
            # gradients per micro-batch; the round's one optimizer step
            # per batch would then see none.
            raise ValueError(
                f"AvgPipeTrainer needs a synchronous schedule; "
                f"{schedule.name!r} updates per micro-batch"
            )
        #: optional repro.obs TrainingTelemetry.  Every hook below is
        #: read-only on trainer state, so runs with and without telemetry
        #: produce bitwise-identical weights and metric histories (the
        #: obs negative-path test pins this).
        self.telemetry = telemetry
        self.num_pipelines = num_pipelines
        # All pipelines start from identical weights (same init seed) but
        # draw distinct dropout streams, like processes sharing a checkpoint.
        self.models = [spec.build_model().seed(seed) for _ in range(num_pipelines)]
        base_state = self.models[0].state_dict()
        for m in self.models[1:]:
            m.load_state_dict(base_state)
        for i, m in enumerate(self.models[1:], start=1):
            m.seed(seed * 7919 + i)
            m.load_state_dict(base_state)  # seeding must not touch weights
        self.optimizers = [spec.make_optimizer(m) for m in self.models]
        self.framework = ElasticAveragingFramework(
            self.models, alpha=alpha, queue_delay=queue_delay,
            registry=telemetry.registry if telemetry is not None else None,
        )
        self.loader = spec.make_train_loader(spec.batch_size, seed)
        self.eval_template = spec.build_model()
        self.runners = None
        self._partition = partition
        self._schedule = schedule
        if partition is not None:
            self.num_micro = num_micro or 4
            self._schedule = schedule or AdvanceFPSchedule(1)
            self.runners = [
                PipelinedRunner(m, partition, self._schedule)
                for m in self.models
            ]

    # ------------------------------------------------------------------ #
    # failure recovery hooks (repro.resilience)

    def evict_pipeline(self, index: int) -> None:
        """Drop a dead pipeline and continue with N−1 survivors.

        The elastic framework renormalizes an automatic α to 0.5/N′ and
        discards the in-flight averaging round; the survivors' models,
        optimizers and the reference are untouched.
        """
        if self.num_pipelines == 1:
            raise RuntimeError("cannot evict the last pipeline")
        if not 0 <= index < self.num_pipelines:
            raise ValueError(f"pipeline index {index} out of range")
        survivors = [i for i in range(self.num_pipelines) if i != index]
        self.framework.resize(survivors)
        del self.models[index]
        del self.optimizers[index]
        if self.runners is not None:
            del self.runners[index]
        self.num_pipelines -= 1

    def rejoin_pipeline(self, seed: int | None = None) -> int:
        """Re-admit a pipeline seeded from the current reference model.

        A fresh model (weights overwritten by the reference) and a fresh
        optimizer (recovered processes lose their moment estimates) join
        the framework, which renormalizes an automatic α.  Returns
        the new pipeline's index.
        """
        rejoin_seed = self.seed * 7919 + self.num_pipelines if seed is None else seed
        model = self.spec.build_model().seed(rejoin_seed)
        index = self.framework.add_model(model)
        self.models.append(model)
        self.optimizers.append(self.spec.make_optimizer(model))
        if self.runners is not None:
            self.runners.append(PipelinedRunner(model, self._partition, self._schedule))
        self.num_pipelines += 1
        return index

    # ------------------------------------------------------------------ #
    # the AvgPipe round (§3.2); train(), the chaos harness and the
    # scheduler cross-check all drive these three methods

    def step(self, pos: int, batch: dict[str, np.ndarray]) -> float:
        """Pipeline ``pos``'s local step on ``batch``, committed to the round.

        Captures the pre-step weights, runs the whole-model or faithful
        stage-sliced backward, clips, steps the optimizer and posts the
        elastic Δ.  Returns the batch loss (mean over micro-batches in the
        faithful path).
        """
        before = self.framework.capture(pos)
        if self.runners is None:
            model = self.models[pos]
            model.zero_grad()
            out = model.loss(batch)
            out.backward()
            loss = float(out.item())
        else:
            micros = dataset.split_microbatches(batch, self.num_micro)
            loss = self.runners[pos].run_batch(micros)
        opt = self.optimizers[pos]
        opt.clip_grad_norm(GRAD_CLIP)
        opt.step()
        self.framework.commit(pos, before)
        if self.telemetry is not None:
            self.telemetry.record_loss(pos, loss)
            self.telemetry.record_samples(len(next(iter(batch.values()))))
        return loss

    def end_round(self) -> None:
        """Close the round: the reference applies the committed deltas."""
        self.framework.end_iteration()
        if self.telemetry is not None:
            self.telemetry.record_round(self.framework)

    def evaluate(self) -> float:
        """The metric of the reference model."""
        self.framework.reference_model(self.eval_template)
        metric = self.spec.evaluate(self.eval_template)
        if self.telemetry is not None:
            self.telemetry.record_eval(self.spec.metric_name, metric)
        return metric

    def _reset(self) -> None:
        self._pos = 0  # pipelines that committed in the current round

    def _update(self, batch: dict[str, np.ndarray]) -> None:
        self.step(self._pos, batch)
        self._pos += 1
        if self._pos == self.num_pipelines:
            self.end_round()
            self._pos = 0

    def _end_epoch(self) -> None:
        if self._pos:  # ragged tail of the epoch
            self.end_round()
            self._pos = 0
