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
  too, and ``train()`` runs the round's pipelines in forked workers
  with bitwise the same result.

Every trainer runs the one epoch loop in ``_TrainerBase.train`` and
supplies only its per-batch update and its evaluation, so the comparison
is apples to apples: same loaders, same seeds, same gradient clipping,
same per-epoch evaluation.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.elastic import ElasticAveragingFramework
from repro.core.pipeline import PipelinedRunner
from repro.core.simcfg import calibration_for
from repro.data import dataset
from repro.models.registry import WorkloadSpec
from repro.schedules.base import AdvanceFPSchedule, PipeDreamSchedule

if TYPE_CHECKING:
    import multiprocessing.connection

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

    :meth:`train` runs the N pipelines at once, as the paper's processes
    do: given more than one CPU and a single-threaded process (BLAS
    included, e.g. ``OPENBLAS_NUM_THREADS=1``) it steps pipelines
    1..N−1 in forked workers (:class:`_PipelinePool`) and pulls their
    state back when it returns.  :meth:`step` and :meth:`end_round` are the in-process
    round it matches bit for bit; outside ``train()`` this process's
    state is authoritative.
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
        self._pool: _PipelinePool | None = None  # set for the length of a train() call
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
        return self._local_step(pos, batch, self.framework.commit)[0]

    def _local_step(self, pos: int, batch: dict[str, np.ndarray], finish):
        """:meth:`step`'s body, ended by ``finish(pos, before)``:
        ``framework.commit`` here, ``framework.dilute`` in a pool worker,
        whose parent posts the Δ.  Returns (loss, ``finish``'s result)."""
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
        finished = finish(pos, before)
        if self.telemetry is not None:
            self.telemetry.record_loss(pos, loss)
            self.telemetry.record_samples(len(next(iter(batch.values()))))
        return loss, finished

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

    # ------------------------------------------------------------------ #
    # per-pipeline state: checkpoints and the pool's pull-back use this pair

    def pipeline_state(self, pos: int) -> dict:
        """Pipeline ``pos``'s own training state, copied: ``model``
        weights, ``optimizer`` state (lr included) and ``rng``, every
        module's bit-generator state in traversal order (dropout and
        weight-drop streams are part of the trajectory, so a restart
        resumes them mid-stream rather than re-seeding them)."""
        model = self.models[pos]
        return {
            "model": model.state_dict(),
            "optimizer": self.optimizers[pos].state_dict(),
            "rng": [module._rng.bit_generator.state for module in _rng_modules(model)],
        }

    def load_pipeline_state(self, pos: int, state: dict) -> None:
        """Restore what :meth:`pipeline_state` returned; an ``rng`` of
        None (a v1 checkpoint) leaves the streams as they are."""
        model = self.models[pos]
        model.load_state_dict(state["model"])
        self.optimizers[pos].load_state_dict(state["optimizer"])
        if state["rng"] is None:
            return
        modules = _rng_modules(model)
        if len(modules) != len(state["rng"]):
            raise ValueError(
                f"state has {len(state['rng'])} RNG streams, model has {len(modules)} modules"
            )
        for module, rng_state in zip(modules, state["rng"]):
            rng = np.random.default_rng()
            rng.bit_generator.state = rng_state
            object.__setattr__(module, "_rng", rng)

    # ------------------------------------------------------------------ #
    # the epoch loop

    def train(self) -> TrainResult:
        """Run up to ``max_epochs`` epochs, over :func:`_pool_processes`
        processes (:class:`_PipelinePool`), bitwise as :meth:`step` and
        :meth:`end_round` in this one."""
        processes = _pool_processes(self.num_pipelines)
        if processes == 1:
            return super().train()
        pool = self._pool = _PipelinePool(self, processes)
        finished = False
        try:
            result = super().train()
            finished = True
        finally:
            self._pool = None
            pool.close(pull_back=finished)
        return result

    def _reset(self) -> None:
        self._round: list[dict[str, np.ndarray]] = []  # batches of the open round

    def _update(self, batch: dict[str, np.ndarray]) -> None:
        self._round.append(batch)
        if len(self._round) == self.num_pipelines:
            self._close_round()

    def _end_epoch(self) -> None:
        if self._round:  # ragged tail of the epoch
            self._close_round()

    def _close_round(self) -> None:
        if self._pool is None:
            for pos, batch in enumerate(self._round):
                self.step(pos, batch)
        else:
            self._pool.run_round(self._round)
        self._round = []
        self.end_round()


def _rng_modules(model) -> list:
    """Every module of ``model`` that owns an RNG stream, in traversal order."""
    return [module for layer in model.layers for module in layer.modules()]


def _pool_processes(num_pipelines: int) -> int:
    """One process per CPU this process may run on, up to N; 1 (fork
    nothing) where the platform cannot say or the process already runs
    other threads.  Forking a threaded process is unsafe, and a threaded
    BLAS already spreads its products over the CPUs: forked workers made
    GNMT N=3 on two CPUs 2.7x slower."""
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):  # not Linux
        return 1
    return min(num_pipelines, cpus) if threads == 1 else 1


class _Worker(NamedTuple):
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    owned: list[int]  # the pipelines it steps


class _Failure(NamedTuple):
    """An exception raised in a worker, shipped to the parent."""
    pos: int
    exc: BaseException
    traceback: str


class _RegistryLog:
    """A worker's stand-in for the telemetry registry: it logs every
    instrument call, and the parent replays the log on the real registry
    in pipeline order, so the series match the one-process loop's."""

    enabled = True

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __getattr__(self, kind: str):  # counter / gauge / histogram
        return lambda *args, **kwargs: _LoggedInstrument(self.calls, (kind, args, kwargs))


class _LoggedInstrument:
    def __init__(self, calls: list, instrument: tuple) -> None:
        self.calls = calls
        self.instrument = instrument

    def __getattr__(self, method: str):  # inc / set / observe
        return lambda *args: self.calls.append((self.instrument, method, args))


def _replay(registry, calls: list[tuple]) -> None:
    for (kind, args, kwargs), method, method_args in calls:
        getattr(getattr(registry, kind)(*args, **kwargs), method)(*method_args)


class _PipelinePool:
    """Forked workers stepping pipelines 1..N−1 of an
    :class:`AvgPipeTrainer` for one ``train()`` call, while the parent
    steps pipeline 0 (``docs/elastic_averaging.md``).

    A round's steps are independent: pipeline ``pos`` reads only its own
    model, optimizer and RNG streams and the reference, which moves only
    in ``end_round``.  Per round the parent sends each worker its batches
    and the reference, and posts the returned Δs in pipeline order.
    ``fork``, not ``spawn``: workers start from the parent's state, and
    a workload spec's closures cannot be pickled.
    """

    def __init__(self, trainer: AvgPipeTrainer, processes: int) -> None:
        import multiprocessing  # here, not at module level: only a pooled train() pays for it

        self.trainer = trainer
        self.workers: list[_Worker] = []
        ctx = multiprocessing.get_context("fork")
        try:
            for w in range(1, processes):
                owned = list(range(w, trainer.num_pipelines, processes - 1))
                conn, child = ctx.Pipe()
                process = ctx.Process(target=self._serve, args=(child, owned), daemon=True)
                process.start()
                child.close()
                self.workers.append(_Worker(process, conn, owned))
        except BaseException:
            self.close(pull_back=False)
            raise

    def _serve(self, conn, owned: list[int]) -> None:
        """A worker's loop, in the forked child."""
        for earlier in self.workers:  # so only the parent holds their ends
            earlier.conn.close()
        trainer = self.trainer
        framework = trainer.framework
        log = None
        if trainer.telemetry is not None and trainer.telemetry.enabled:
            log = trainer.telemetry.registry = framework.registry = _RegistryLog()
        while (message := conn.recv()) is not None:
            jobs, framework.reference = message
            results = {}
            for pos, batch in jobs:
                try:
                    _, delta = trainer._local_step(pos, batch, framework.dilute)
                except Exception as exc:
                    conn.send(_Failure(pos, exc, traceback.format_exc()))
                    return
                observed = None
                if log is not None:
                    observed = (log.calls, trainer.models[pos].state_dict())
                    log.calls = []
                results[pos] = (delta, observed)
            conn.send(results)
        conn.send({pos: trainer.pipeline_state(pos) for pos in owned})

    def run_round(self, batches: list[dict[str, np.ndarray]]) -> None:
        """Step pipeline ``pos`` on ``batches[pos]`` and post the Δs in order."""
        trainer = self.trainer
        framework = trainer.framework
        busy = []
        for worker in self.workers:
            jobs = [(pos, batches[pos]) for pos in worker.owned if pos < len(batches)]
            if jobs:
                self._send(worker, (jobs, framework.reference))
                busy.append(worker)
        trainer.step(0, batches[0])
        results = {}
        for worker in busy:
            results.update(self._receive(worker))
        for pos in range(1, len(batches)):
            delta, observed = results[pos]
            if observed is not None:
                calls, weights = observed
                _replay(trainer.telemetry.registry, calls)
                trainer.models[pos].load_state_dict(weights)
            framework.queue.put(delta)

    def close(self, pull_back: bool) -> None:
        """Pull the workers' pipeline states back if ``pull_back``, then
        reap every worker (killing it unless it finished cleanly)."""
        clean = False
        try:
            if pull_back:
                for worker in self.workers:
                    self._send(worker, None)
                for worker in self.workers:
                    for pos, state in self._receive(worker).items():
                        self.trainer.load_pipeline_state(pos, state)
                clean = True
        finally:
            for worker in self.workers:
                worker.conn.close()
                if not clean:
                    worker.process.kill()
                worker.process.join()

    def _send(self, worker: _Worker, message) -> None:
        try:
            worker.conn.send(message)
        except OSError:  # the worker closed its end: it died
            self._died(worker)

    def _receive(self, worker: _Worker):
        from multiprocessing.connection import wait

        wait([worker.conn, worker.process.sentinel])
        try:
            reply = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):  # closed mid-message or before one
            reply = None
        if reply is None:
            self._died(worker)
        if isinstance(reply, _Failure):
            exc = reply.exc
            exc.args = (f"pipeline {reply.pos}: {exc}",)
            raise exc from RuntimeError(f"worker traceback:\n{reply.traceback}")
        return reply

    @staticmethod
    def _died(worker: _Worker):
        worker.process.join(timeout=5.0)
        raise RuntimeError(
            f"pipeline(s) {worker.owned}: worker process {worker.process.pid} "
            f"died (exit code {worker.process.exitcode})"
        )
