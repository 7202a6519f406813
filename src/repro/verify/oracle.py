"""Sequential oracle + differential tester for the numeric pipeline.

PipeDream's lesson is that weight-version bookkeeping is where pipelined
training silently diverges from sequential training, and torchgpipe's is
that the cure is an independent single-process oracle.  This module
provides both:

* :func:`run_sync_oracle` — for synchronous schedules: plain whole-model
  per-micro-batch passes (no stage slicing, no op streams, no sweep),
  with gradient accumulation in micro order and per-stage-group
  clip/step to mirror the distributed optimizer semantics.
* :func:`run_async_oracle` — for PipeDream: explicit weight-version
  replay.  The version a stage uses for F(i) is a *static* property of
  its op stream (the number of backwards scheduled before F(i)), so the
  oracle walks micro-batches in order, fast-forwards each stage to its
  scheduled version, runs one whole-model forward under the mixed
  per-stage versions, and backwards immediately — no event engine, no
  stashing, yet bit-for-bit the runner's semantics.
* :func:`ElasticOracle` — an independent re-derivation of §3.2's
  dilute/accumulate/normalize round, including queue staleness.
* :func:`differential_check` / :func:`run_differential_sweep` — drive a
  :class:`~repro.core.pipeline.PipelinedRunner` (plus, for N > 1, the
  real :class:`~repro.core.elastic.ElasticAveragingFramework`) and the
  oracle over identical seeded micro-batch streams, and report the max
  absolute divergence in gradients, weights, optimizer state and the
  post-averaging reference.

Everything runs on a tiny float64 toy pipeline model so the whole
(P, M, N) sweep of ``repro verify`` finishes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.elastic import ElasticAveragingFramework
from repro.core.pipeline import PipelinedRunner
from repro.graph.partitioner import Partition, partition_uniform
from repro.models.pipeline_model import ActivationBundle, PipelineLayer, PipelineModel
from repro.nn import Linear
from repro.optim import SGD, Adam
from repro.optim.optimizer import Optimizer
from repro.schedules.base import Schedule, StageOp
from repro.tensor import Tensor, micro_count, tanh
from repro.utils.seeding import derive_rng

__all__ = [
    "VERIFIED_SCHEDULES",
    "make_toy_model",
    "toy_batch",
    "run_sync_oracle",
    "run_async_oracle",
    "ElasticOracle",
    "DifferentialReport",
    "differential_check",
    "run_differential_sweep",
    "elastic_equivalence_check",
]

GRAD_CLIP = 5.0

#: Every registered schedule the differential oracle covers.  Chimera and
#: interleaved virtual stages are simulator-level *placements* of the
#: 1F1B stream (their numerics are OneFOneB); they are listed so the
#: parametrized suites cover the streams those runners execute, and the
#: fuzzer exercises their device maps separately.
VERIFIED_SCHEDULES: dict[str, Callable[[], Schedule]] = {}


def _register_schedules() -> None:
    from repro.schedules import (
        AFABSchedule,
        AdvanceFPSchedule,
        OneFOneBSchedule,
        PipeDreamSchedule,
    )

    VERIFIED_SCHEDULES.update(
        {
            "afab": AFABSchedule,
            "1f1b": lambda: OneFOneBSchedule(versions=1),
            "2bw": lambda: OneFOneBSchedule(versions=2),
            "advance_fp": lambda: AdvanceFPSchedule(advance=1),
            "advance_fp3": lambda: AdvanceFPSchedule(advance=3),
            "pipedream": PipeDreamSchedule,
            "chimera": lambda: OneFOneBSchedule(versions=1),
            "interleaved": lambda: OneFOneBSchedule(versions=1),
        }
    )


_register_schedules()


# ---------------------------------------------------------------------- #
# toy workload


class ToyAffine(PipelineLayer):
    """tanh(Wx + b) on the bundle's ``x``; passes the target through."""

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.fc = Linear(dim, dim)
        # float32-representable float64 values: exact under both the
        # framework's float32 reference averaging and float64 autograd.
        self.fc.weight.data = (
            (rng.standard_normal((dim, dim)) * 0.4).astype(np.float32).astype(np.float64)
        )
        self.fc.bias.data = np.zeros(dim, dtype=np.float64)

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        out = dict(bundle)
        x = bundle["x"]
        if not isinstance(x, Tensor):
            x = Tensor(np.ascontiguousarray(x))
        out["x"] = tanh(self.fc(x))
        return out

    def flops_per_sample(self) -> float:
        return float(2 * self.fc.weight.size)

    def activation_floats_per_sample(self) -> float:
        return float(self.fc.weight.shape[0])


class ToyLoss(PipelineLayer):
    """Mean-squared error of ``x`` against the carried target ``y``; one
    mean per micro-batch under ``micro_stack``."""

    def __init__(self) -> None:
        super().__init__()

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        out = dict(bundle)
        y = bundle["y"]
        if not isinstance(y, Tensor):
            y = Tensor(np.ascontiguousarray(y))
        diff = bundle["x"] - y
        sq = diff * diff
        out["loss"] = sq.mean(axis=tuple(range(1, sq.ndim))) if micro_count() else sq.mean()
        return out

    def flops_per_sample(self) -> float:
        return 1.0

    def activation_floats_per_sample(self) -> float:
        return 1.0


def make_toy_model(num_layers: int, dim: int = 6, seed: int = 0) -> PipelineModel:
    """A ``num_layers``-affine chain + MSE head, deterministic in ``seed``."""
    layers: list[PipelineLayer] = [
        ToyAffine(dim, derive_rng("verify-toy", i, seed=seed)) for i in range(num_layers)
    ]
    layers.append(ToyLoss())
    return PipelineModel(layers=layers, name="verify-toy", metric_mode="min")


def toy_batch(num_micro: int, mb_size: int, dim: int = 6, seed: int = 0) -> list[dict[str, np.ndarray]]:
    """``num_micro`` seeded micro-batches of (x, y) pairs."""
    rng = derive_rng("verify-batch", num_micro, mb_size, seed=seed)
    return [
        {
            "x": rng.standard_normal((mb_size, dim)),
            "y": rng.standard_normal((mb_size, dim)),
        }
        for _ in range(num_micro)
    ]


# ---------------------------------------------------------------------- #
# per-stage optimizer plumbing shared by both oracles


def _stage_param_groups(model: PipelineModel, partition: Partition) -> list[list]:
    groups = []
    for k in range(partition.num_stages):
        lo, hi = partition.span(k)
        params = []
        for layer in model.layers[lo:hi]:
            params.extend(layer.parameters())
        groups.append(params)
    return groups


def _step_group(params, opt: Optimizer | None, grad_clip: float | None) -> None:
    if opt is not None:
        if grad_clip is not None:
            opt.clip_grad_norm(grad_clip)
        opt.step()
        for p in params:
            p.zero_grad()


# ---------------------------------------------------------------------- #
# synchronous oracle


def run_sync_oracle(
    model: PipelineModel,
    partition: Partition,
    micro_batches: Sequence[Mapping[str, np.ndarray]],
    optimizers: Sequence[Optimizer] | None = None,
    grad_clip: float | None = GRAD_CLIP,
) -> float:
    """One synchronous batch, the sequential way.

    Per micro-batch (in order): whole-model forward + backward with
    gradient accumulation.  Then scale by 1/M and apply one optimizer
    step *per stage group* — distributed pipelines clip the gradient norm
    per stage, which a single whole-model optimizer would not reproduce.
    Returns the mean micro-batch loss.
    """
    model.zero_grad()
    losses = []
    for mb in micro_batches:
        loss = model.loss(mb)
        loss.backward()
        losses.append(float(loss.item()))
    scale = 1.0 / len(micro_batches)
    groups = _stage_param_groups(model, partition)
    opts = optimizers if optimizers is not None else [None] * len(groups)
    for params, opt in zip(groups, opts):
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
        _step_group(params, opt, grad_clip)
    return float(np.mean(losses))


# ---------------------------------------------------------------------- #
# asynchronous (PipeDream) oracle: explicit weight-version replay


def _version_schedule(ops: Sequence[StageOp], num_micro: int) -> list[int]:
    """versions[i] = number of updates applied before F(i) on this stage."""
    versions = [0] * num_micro
    updates = 0
    for op in ops:
        if op.kind == "fwd":
            versions[op.micro] = updates
        else:
            updates += 1
    return versions


def run_async_oracle(
    model: PipelineModel,
    partition: Partition,
    schedule: Schedule,
    micro_batches: Sequence[Mapping[str, np.ndarray]],
    optimizers: Sequence[Optimizer],
    grad_clip: float | None = GRAD_CLIP,
) -> float:
    """One PipeDream batch with explicit weight-version replay.

    The stream invariants make the replay sequential: backwards (hence
    updates) happen in micro order on every stage, and the weight version
    F(i) uses on stage k is the count of backwards scheduled before it.
    So walk micros in order; before forwarding micro i, fast-forward each
    stage to its scheduled version by applying the pending (already
    computed) per-micro updates; then one whole-model forward under the
    mixed versions and an immediate backward — which *is* the stashed
    gradient, because the weights have not moved since this forward.
    Each replayed update steps on its micro-batch's gradient unscaled,
    clipped per stage (PipeDream's convention, docs/schedules.md).
    """
    K = partition.num_stages
    M = len(micro_batches)
    versions = [
        _version_schedule(schedule.stage_ops(k, K, M), M) for k in range(K)
    ]
    groups = _stage_param_groups(model, partition)
    # Gradient of micro i at stage k, recorded as it is computed.
    pending_grads: list[list[list[np.ndarray] | None]] = [
        [None] * M for _ in range(K)
    ]
    applied = [0] * K
    losses = []

    def apply_update(k: int) -> None:
        j = applied[k]
        grads = pending_grads[k][j]
        assert grads is not None, f"update {j} on stage {k} replayed before its backward"
        for p, g in zip(groups[k], grads):
            p.grad = g.copy()
        _step_group(groups[k], optimizers[k], grad_clip)
        pending_grads[k][j] = None
        applied[k] += 1

    for i, mb in enumerate(micro_batches):
        for k in range(K):
            while applied[k] < versions[k][i]:
                apply_update(k)
        model.zero_grad()
        loss = model.loss(mb)
        loss.backward()
        losses.append(float(loss.item()))
        for k in range(K):
            pending_grads[k][i] = [
                p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in groups[k]
            ]
    for k in range(K):
        while applied[k] < M:
            apply_update(k)
    model.zero_grad()
    return float(np.mean(losses))


# ---------------------------------------------------------------------- #
# elastic-averaging oracle (§3.2, re-derived)


class ElasticOracle:
    """Independent implementation of the dilute/accumulate/normalize round.

    Mirrors the framework's dtype discipline — the reference state and the
    accumulator are float32, the spec's storage format for the center —
    but re-derives the algorithm from §3.2: capture x_i before the local
    step, Δ_i = x_i' − x_i, dilute x_i ← (1−α)x_i' + α·x_ref against the
    possibly-stale reference, enqueue Δ_i with ``delay`` rounds of
    staleness, and once N deltas arrived apply x_ref += (1/N)·ΣΔ.
    """

    def __init__(
        self,
        models: Sequence[PipelineModel],
        alpha: float,
        queue_delay: int = 1,
    ) -> None:
        self.models = list(models)
        n = len(self.models)
        self.alpha = float(alpha)
        self.delay = queue_delay
        stacks: dict[str, np.ndarray] = {}
        for m in self.models:
            for name, p in m.named_parameters():
                acc = stacks.get(name)
                stacks[name] = p.data.astype(np.float64) + (0.0 if acc is None else acc)
        self.reference: dict[str, np.ndarray] = {
            name: (total / n).astype(np.float32) for name, total in stacks.items()
        }
        self._clock = 0
        self._queue: list[tuple[int, dict[str, np.ndarray]]] = []
        self._accumulated = {k: np.zeros_like(v) for k, v in self.reference.items()}
        self._received = 0

    def capture(self, index: int) -> dict[str, np.ndarray]:
        return self.models[index].state_dict()

    def commit(self, index: int, before: Mapping[str, np.ndarray]) -> None:
        model = self.models[index]
        delta: dict[str, np.ndarray] = {}
        for name, p in model.named_parameters():
            delta[name] = p.data - before[name]
            p.data = (1.0 - self.alpha) * p.data + self.alpha * self.reference[name]
        self._queue.append((self._clock + self.delay, delta))

    def end_iteration(self) -> None:
        self._clock += 1
        remaining = []
        for visible_at, delta in self._queue:
            if visible_at <= self._clock:
                for name, value in delta.items():
                    # float32 store of a float64 sum, like the framework's
                    # in-place accumulate.
                    self._accumulated[name] = (
                        self._accumulated[name].astype(np.float64) + value
                    ).astype(np.float32)
                self._received += 1
            else:
                remaining.append((visible_at, delta))
        self._queue = remaining
        if self._received >= len(self.models):
            scale = 1.0 / len(self.models)
            for name in self.reference:
                self.reference[name] = self.reference[name] + scale * self._accumulated[name]
                self._accumulated[name][...] = 0.0
            self._received = 0


def elastic_equivalence_check(
    framework: ElasticAveragingFramework,
    build_model: Callable[[], PipelineModel],
    rounds: int = 3,
    seed: int = 0,
    update_scale: float = 0.01,
) -> float:
    """Probe a *live* framework's state against a fresh :class:`ElasticOracle`.

    Used by ``repro.resilience`` after a recovery action (evict / rejoin /
    restart): clones the framework — current α, queue delay and reference
    included — into independent model copies, then drives
    the clone and an oracle seeded from the same state through ``rounds``
    identical synthetic update rounds.  Returns the max absolute
    divergence over the resulting references and model weights; any
    nonzero drift means the resize left the framework inconsistent with
    an independent §3.2 derivation at the new N.  The framework under
    test is not mutated.
    """
    def clone_set():
        clones = []
        for m in framework.models:
            c = build_model()
            c.load_state_dict(m.state_dict())
            clones.append(c)
        return clones

    clone_models, oracle_models = clone_set(), clone_set()
    clone = ElasticAveragingFramework(
        clone_models,
        alpha=framework.alpha,
        queue_delay=framework.queue.delay,
    )
    oracle = ElasticOracle(
        oracle_models,
        alpha=framework.alpha,
        queue_delay=framework.queue.delay,
    )
    # Both start from the framework's *actual* reference, not the model
    # average their constructors computed.
    for holder in (clone, oracle):
        holder.reference = {k: v.copy() for k, v in framework.reference.items()}

    for r in range(rounds):
        for i in range(len(clone.models)):
            rng = derive_rng("elastic-probe", r, i, seed=seed)
            updates = {
                name: (rng.standard_normal(p.shape) * update_scale).astype(p.data.dtype)
                for name, p in clone.models[i].named_parameters()
            }
            c_before = clone.capture(i)
            o_before = oracle.capture(i)
            for name, p in clone.models[i].named_parameters():
                p.data = p.data + updates[name]
            for name, p in oracle.models[i].named_parameters():
                p.data = p.data + updates[name]
            clone.commit(i, c_before)
            oracle.commit(i, o_before)
        clone.end_iteration()
        oracle.end_iteration()

    worst = max(
        _max_param_delta(a, b) for a, b in zip(clone.models, oracle.models)
    )
    for name in clone.reference:
        worst = max(
            worst, float(np.abs(clone.reference[name] - oracle.reference[name]).max())
        )
    return worst


# ---------------------------------------------------------------------- #
# differential driver


@dataclass
class DifferentialReport:
    """Max absolute divergences between pipeline and oracle."""

    schedule: str
    num_stages: int
    num_micro: int
    num_pipelines: int
    max_grad_delta: float
    max_weight_delta: float
    max_opt_state_delta: float
    max_reference_delta: float
    max_loss_delta: float

    def worst(self) -> float:
        return max(
            self.max_grad_delta,
            self.max_weight_delta,
            self.max_opt_state_delta,
            self.max_reference_delta,
            self.max_loss_delta,
        )

    def ok(self, tol: float = 1e-9) -> bool:
        return self.worst() <= tol

    def __str__(self) -> str:
        return (
            f"{self.schedule} K={self.num_stages} M={self.num_micro} N={self.num_pipelines}: "
            f"|Δgrad|={self.max_grad_delta:.3g} |Δw|={self.max_weight_delta:.3g} "
            f"|Δopt|={self.max_opt_state_delta:.3g} |Δref|={self.max_reference_delta:.3g}"
        )


def _ordered_params(model: PipelineModel) -> list:
    return [p for _, p in model.named_parameters()]


def _max_param_delta(a: PipelineModel, b: PipelineModel) -> float:
    worst = 0.0
    for pa, pb in zip(_ordered_params(a), _ordered_params(b)):
        worst = max(worst, float(np.abs(pa.data - pb.data).max()))
    return worst


def _max_grad_delta(a: PipelineModel, b: PipelineModel) -> float:
    worst = 0.0
    for pa, pb in zip(_ordered_params(a), _ordered_params(b)):
        ga = pa.grad if pa.grad is not None else np.zeros_like(pa.data)
        gb = pb.grad if pb.grad is not None else np.zeros_like(pb.data)
        worst = max(worst, float(np.abs(ga - gb).max()))
    return worst


def _max_opt_delta(pipe_opts: Sequence[Optimizer], oracle_opts: Sequence[Optimizer]) -> float:
    worst = 0.0
    for oa, ob in zip(pipe_opts, oracle_opts):
        sa, sb = oa.state_dict()["state"], ob.state_dict()["state"]
        for key in set(sa) | set(sb):
            ea, eb = sa.get(key, {}), sb.get(key, {})
            for field in set(ea) | set(eb):
                va, vb = ea.get(field), eb.get(field)
                if va is None or vb is None:
                    worst = max(worst, float("inf"))
                elif isinstance(va, np.ndarray):
                    worst = max(worst, float(np.abs(va - np.asarray(vb)).max()))
                else:
                    worst = max(worst, float(abs(va - vb)))
    return worst


def _make_optimizer(kind: str, params) -> Optimizer:
    if kind == "sgd":
        return SGD(params, lr=0.05, momentum=0.9)
    if kind == "adam":
        return Adam(params, lr=0.01)
    raise ValueError(f"unknown optimizer {kind!r}")


def differential_check(
    schedule_name: str,
    num_stages: int,
    num_micro: int,
    num_pipelines: int = 1,
    iterations: int = 2,
    optimizer: str = "sgd",
    queue_delay: int = 1,
    dim: int = 6,
    mb_size: int = 2,
    seed: int = 0,
) -> DifferentialReport:
    """Run pipeline and oracle on identical inputs; report divergences.

    Phase 1 (synchronous schedules only): a fresh model pair runs one
    batch with no optimizer and the accumulated 1/M-scaled gradients are
    compared.  Phase 2: ``iterations`` optimizer-driven rounds — with
    ``num_pipelines > 1``, each round feeds every pipeline its own batch
    and closes with an elastic-averaging step (the real framework on the
    pipelined side, :class:`ElasticOracle` on the oracle side) — then
    weights, optimizer state and the reference are compared.
    """
    factory = VERIFIED_SCHEDULES[schedule_name]
    schedule = factory()
    num_layers = num_stages  # one affine layer per stage + the loss head

    def fresh_pair(tag: int):
        pipe_model = make_toy_model(num_layers, dim=dim, seed=seed * 7919 + tag)
        oracle_model = make_toy_model(num_layers, dim=dim, seed=seed * 7919 + tag)
        # Stage k owns affine k; the last stage also hosts the (parameter
        # free) loss head so every stage optimizer has parameters.
        partition = Partition(tuple(range(num_stages)) + (num_stages + 1,))
        return pipe_model, oracle_model, partition

    sync = schedule.sync_at_batch_end
    max_grad = 0.0
    max_loss = 0.0

    # ---- phase 1: raw gradient comparison (sync only) ------------------ #
    if sync:
        pipe_model, oracle_model, partition = fresh_pair(tag=0)
        runner = PipelinedRunner(pipe_model, partition, schedule, optimizer_factory=None)
        micros = toy_batch(num_micro, mb_size, dim=dim, seed=seed)
        pipe_loss = runner.run_batch(micros)
        oracle_loss = run_sync_oracle(oracle_model, partition, micros, optimizers=None)
        max_grad = _max_grad_delta(pipe_model, oracle_model)
        max_loss = abs(pipe_loss - oracle_loss)

    # ---- phase 2: optimizer + elastic rounds --------------------------- #
    pipe_models, oracle_models = [], []
    runners, pipe_opts, oracle_opts, partitions = [], [], [], []
    for n in range(num_pipelines):
        pipe_model, oracle_model, partition = fresh_pair(tag=1 + n)
        opt_factory = lambda stage: _make_optimizer(optimizer, stage.parameters())
        runner = PipelinedRunner(
            pipe_model, partition, schedule, optimizer_factory=opt_factory, grad_clip=GRAD_CLIP
        )
        groups = _stage_param_groups(oracle_model, partition)
        oracle_opt = [_make_optimizer(optimizer, params) for params in groups]
        pipe_models.append(pipe_model)
        oracle_models.append(oracle_model)
        runners.append(runner)
        pipe_opts.extend(runner.stage_optimizers)
        oracle_opts.extend(oracle_opt)
        partitions.append((partition, oracle_opt))

    alpha = 1.0 / num_pipelines
    framework = ElasticAveragingFramework(pipe_models, alpha=alpha, queue_delay=queue_delay)
    oracle_elastic = ElasticOracle(oracle_models, alpha=alpha, queue_delay=queue_delay)
    max_ref = 0.0

    for it in range(iterations):
        for n in range(num_pipelines):
            micros = toy_batch(num_micro, mb_size, dim=dim, seed=seed + 1000 * it + 31 * n + 1)
            before = framework.capture(n)
            pipe_loss = runners[n].run_batch(micros)
            framework.commit(n, before)

            partition, oracle_opt = partitions[n]
            o_before = oracle_elastic.capture(n)
            if sync:
                oracle_loss = run_sync_oracle(
                    oracle_models[n], partition, micros, optimizers=oracle_opt
                )
            else:
                oracle_loss = run_async_oracle(
                    oracle_models[n], partition, schedule, micros, optimizers=oracle_opt
                )
            oracle_elastic.commit(n, o_before)
            max_loss = max(max_loss, abs(pipe_loss - oracle_loss))
        framework.end_iteration()
        oracle_elastic.end_iteration()

    max_weight = max(
        _max_param_delta(a, b) for a, b in zip(pipe_models, oracle_models)
    )
    for name in framework.reference:
        max_ref = max(
            max_ref,
            float(np.abs(framework.reference[name] - oracle_elastic.reference[name]).max()),
        )
    max_opt = _max_opt_delta(pipe_opts, oracle_opts)

    return DifferentialReport(
        schedule=schedule_name,
        num_stages=num_stages,
        num_micro=num_micro,
        num_pipelines=num_pipelines,
        max_grad_delta=max_grad,
        max_weight_delta=max_weight,
        max_opt_state_delta=max_opt,
        max_reference_delta=max_ref,
        max_loss_delta=max_loss,
    )


def run_differential_sweep(
    schedules: Sequence[str] | None = None,
    stages: Sequence[int] = (2, 3, 4),
    micros: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    pipelines: Sequence[int] = (1, 2, 3),
    optimizer: str = "sgd",
    seed: int = 0,
) -> list[DifferentialReport]:
    """The acceptance sweep: every schedule at (P=2..4, M=2..8, N=1..3)."""
    names = list(schedules) if schedules is not None else list(VERIFIED_SCHEDULES)
    reports = []
    for name in names:
        for p in stages:
            for m in micros:
                for n in pipelines:
                    reports.append(
                        differential_check(
                            name, p, m, num_pipelines=n, optimizer=optimizer, seed=seed
                        )
                    )
    return reports
