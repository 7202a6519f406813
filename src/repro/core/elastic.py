"""The elastic-averaging-based framework (§3.2).

N *parallel models* each train on their own batches with a user-chosen
optimizer (Adam, SGD, ASGD, ... — the framework never looks inside the
optimizer, which is the §3.1 point of difference from EASGD-style coupled
optimizers).  A *reference model* holds the center the parallel models
are pulled toward.

Per iteration, for each parallel model i (§3.2 steps 1-5):

1. the pipeline computes a local update Δ_i = opt_step(x_i) − x_i,
2. the model is diluted toward the reference:
   x_i ← (1−α)·x_i' + α·x_ref  with α = 0.5/N by default (the paper's
   "empirical" 1/N [18] over-pulls at this scale; docs/elastic_averaging.md),
3. Δ_i is posted to the reference's message queue (async),
4. the reference process accumulates arriving updates,
5. once all N updates of an iteration arrived it applies their mean:
   x_ref ← x_ref + (1/N)·ΣΔ_i, so the reference tracks the
   parallel-model average of Figure 5.

With a synchronous queue the reference is a bounded-lag tracker of the
parallel-model average — an invariant the tests assert; with an async
queue, step 2 may see a reference that lags by the queue delay, which is
the configuration the paper runs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.messages import MessageQueue
from repro.models.pipeline_model import PipelineModel

__all__ = ["ElasticAveragingFramework"]

StateDict = dict[str, np.ndarray]

#: exponential buckets for weight-space RMS magnitudes (α-pulls and
#: applied reference updates): 1e-8 .. ~5.4, factor-2 resolution.
_RMS_BUCKETS = tuple(1e-8 * (2.0**i) for i in range(30))


def _param_dtype(models: Sequence[PipelineModel]) -> np.dtype:
    """The single dtype shared by every parameter of ``models``.

    The flat round gathers all parameters into one workspace, so a mix
    of dtypes has no faithful flat layout: it is rejected, not promoted.
    """
    dtypes = {p.data.dtype for m in models for p in m.parameters()}
    if len(dtypes) != 1:
        raise TypeError(
            "elastic averaging needs one parameter dtype across all models, "
            f"got {sorted(str(d) for d in dtypes)}"
        )
    return dtypes.pop()


class ElasticAveragingFramework:
    """Coordinates N parallel :class:`PipelineModel`\\ s and a reference.

    Parameters
    ----------
    parallel_models:
        The N models, structurally identical, typically initialized from
        the same seed (the reference starts at their common value).
    alpha:
        Elastic pull coefficient; ``None`` means the automatic 0.5/N,
        renormalized whenever a pipeline is evicted or rejoins.
    queue_delay:
        Iterations of staleness on the update queue (0 = synchronous).
    """

    def __init__(
        self,
        parallel_models: Sequence[PipelineModel],
        alpha: float | None = None,
        queue_delay: int = 1,
        registry=None,
    ) -> None:
        if not parallel_models:
            raise ValueError("need at least one parallel model")
        self.models = list(parallel_models)
        #: whether α follows the automatic rule — membership changes
        #: renormalize an auto α to the new N but leave an explicit one alone.
        self._alpha_auto = alpha is None
        if alpha is not None:
            self.alpha = float(alpha)
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        names = [sorted(name for name, _ in m.named_parameters()) for m in self.models]
        if any(ns != names[0] for ns in names[1:]):
            raise ValueError("parallel models have mismatched parameter structure")
        #: flat Δ vectors in the layout of _rebuild_param_cache
        self.queue: MessageQueue[np.ndarray] = MessageQueue(delay=queue_delay)
        # Reference starts at the average of the parallel models.  Model
        # structure is fixed between membership changes (all layers create
        # their parameters in __init__), so the flat layout is computed
        # once here and redone only in _discard_round.
        self.recenter()
        #: optional repro.obs MetricRegistry: dilute() publishes the RMS
        #: magnitude of each α-pull and reference_step() the RMS of each
        #: applied reference update.  Telemetry is read off the flat
        #: vectors *after* the arithmetic, so instrumented and bare runs
        #: execute the same code and evolve the weights bitwise
        #: identically (tested).
        self.registry = registry

    @property
    def num_parallel(self) -> int:
        return len(self.models)

    # ------------------------------------------------------------------ #
    # elastic resize (repro.resilience): evict / rejoin pipelines

    def resize(self, keep: Sequence[int]) -> None:
        """Shrink to a subset of the parallel models and renormalize α.

        ``keep`` lists the surviving indices (N′ of them).  An automatic α
        follows the new count; an explicitly chosen α is kept.

        The in-flight averaging round is discarded: partial accumulations
        and queued deltas were produced under the old N's normalization
        (and possibly by the dead pipeline), so mixing them into a 1/N′
        round would break the conservation property the tests assert.
        The reference itself is untouched — that is what makes eviction
        semantics-preserving: survivors keep pulling toward the same
        center, now with the weight of N′ models.
        """
        keep = list(keep)
        if not keep:
            raise ValueError("resize needs at least one surviving model")
        if len(set(keep)) != len(keep):
            raise ValueError(f"duplicate indices in {keep}")
        if any(not 0 <= i < len(self.models) for i in keep):
            raise ValueError(f"index out of range in {keep}")
        self.models = [self.models[i] for i in keep]
        self._discard_round()

    def add_model(self, model: PipelineModel) -> int:
        """Re-admit a pipeline; it restarts from the reference.

        Seeding from the reference is what keeps a rejoin invisible to the
        center: the newcomer's first dilution is a no-op and its first
        delta is measured from the reference, exactly as if it had always
        been there at the fixed point.  An automatic α follows the new
        count.  Returns the new model's index.
        """
        names = sorted(name for name, _ in model.named_parameters())
        if names != sorted(self.reference):
            raise ValueError("rejoining model has mismatched parameter structure")
        _param_dtype([*self.models, model])
        model.load_state_dict(self.reference)
        self.models.append(model)
        self._discard_round()
        return len(self.models) - 1

    def recenter(self) -> None:
        """Move the reference to the parallel models' average and drop the
        round in flight — the state of a restart without a checkpoint."""
        total: StateDict = {}
        for model in self.models:
            for name, param in model.named_parameters():
                x = param.data.astype(np.float64)
                total[name] = total[name] + x if name in total else x
        n = len(self.models)
        self.reference: StateDict = {k: (v / n).astype(np.float32) for k, v in total.items()}
        self._discard_round()

    def _discard_round(self) -> None:
        """Start a fresh round for the current membership; the one place
        an automatic α is (re)set for the current N."""
        if self._alpha_auto:
            self.alpha = 0.5 / len(self.models)
        self._received = 0
        self.queue.clear()
        self._rebuild_param_cache()

    def _rebuild_param_cache(self) -> None:
        """Fix the flat layout for the current membership; allocate scratch.

        The layout is model 0's parameter walk: every model's parameters
        are gathered in that name order, so a flat vector (snapshot, Δ,
        accumulator, gathered reference) means the same thing whichever
        model produced it.  The data/keep workspaces carry the models'
        single parameter dtype; the reference, its pull workspace and the
        accumulator are float32.  The hot path's only fresh allocations
        are the arrays that outlive a call (the queued Δ and the new
        diluted / reference vectors).  Re-zeroing the accumulator here
        also resets the in-flight round.
        """
        dtype = _param_dtype(self.models)
        names = [name for name, _ in self.models[0].named_parameters()]
        self._params = [
            [params[name] for name in names]
            for params in (dict(m.named_parameters()) for m in self.models)
        ]
        layout = []
        off = 0
        for name, p in zip(names, self._params[0]):
            layout.append((name, off, off + p.data.size, p.data.shape))
            off += p.data.size
        self._layout = layout
        self._data = np.empty(off, dtype=dtype)
        self._keep = np.empty(off, dtype=dtype)
        self._ref = np.empty(off, dtype=np.float32)
        self._pull = np.empty(off, dtype=np.float32)
        self._acc = np.zeros(off, dtype=np.float32)

    def _split(self, flat: np.ndarray) -> StateDict:
        """Per-name views of a flat vector laid out by the current layout."""
        return {
            name: flat[start:end].reshape(shape)
            for name, start, end, shape in self._layout
        }

    def _join(self, state: Mapping[str, np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """Concatenate ``state`` in layout order (the inverse of :meth:`_split`)."""
        return np.concatenate(
            [state[name].ravel() for name, *_ in self._layout], out=out, casting="no"
        )

    def _tracking(self) -> bool:
        return self.registry is not None and self.registry.enabled

    # ------------------------------------------------------------------ #
    # pipeline-side steps

    def capture(self, index: int) -> np.ndarray:
        """Snapshot model ``index`` before its optimizer step (step 1)."""
        return np.concatenate(
            [p.data.ravel() for p in self._params[index]],
            dtype=self._data.dtype,
            casting="no",
        )

    def dilute(self, index: int, before: np.ndarray) -> np.ndarray:
        """After the optimizer step: compute Δ and dilute (steps 1-2).

        Returns Δ for step 3's post.  Δ and the dilution are elementwise,
        so running them over the concatenated vectors is bitwise
        identical to a per-parameter loop (the independent
        ``ElasticOracle`` checks exactly that).  A parameter whose dtype
        drifted since the layout was fixed raises ``TypeError`` at the
        gather.
        """
        alpha = self.alpha
        params = self._params[index]
        data = np.concatenate([p.data.ravel() for p in params], out=self._data, casting="no")
        ref = self._join(self.reference, out=self._ref)
        delta = data - before
        np.multiply(1.0 - alpha, data, out=self._keep)
        # Step 2: dilute toward the (possibly stale) reference.
        np.multiply(alpha, ref, out=self._pull)
        diluted = self._keep + self._pull
        for p, (_, start, end, shape) in zip(params, self._layout):
            p.data = diluted[start:end].reshape(shape)
        if self._tracking():
            move = diluted.astype(np.float64) - data
            self.registry.counter("elastic.commits", model=index).inc()
            self.registry.histogram(
                "elastic.pull_rms", buckets=_RMS_BUCKETS, model=index
            ).observe(float(np.sqrt(np.mean(move**2))))
            self.registry.gauge("elastic.alpha").set(alpha)
        return delta

    def commit(self, index: int, before: np.ndarray) -> None:
        """Steps 1-3: :meth:`dilute`, then post Δ to the reference's queue."""
        self.queue.put(self.dilute(index, before))

    # ------------------------------------------------------------------ #
    # reference-side steps

    def reference_step(self) -> bool:
        """Steps 4-5: drain arrived updates; apply once N accumulated.

        Returns True if the reference advanced this call.
        """
        acc = self._acc
        for delta in self.queue.drain():
            acc += delta
            self._received += 1
        if self._received < self.num_parallel:
            return False
        applied = np.multiply(1.0 / self.num_parallel, acc, out=self._pull)
        new_ref = self._join(self.reference, out=self._ref) + applied
        self.reference.update(self._split(new_ref))
        acc[...] = 0.0
        self._received = 0
        if self._tracking():
            self.registry.counter("elastic.reference_updates").inc()
            self.registry.histogram(
                "elastic.update_rms", buckets=_RMS_BUCKETS
            ).observe(float(np.sqrt(np.mean(applied.astype(np.float64) ** 2))))
        return True

    def end_iteration(self) -> bool:
        """Advance the queue clock, then run the reference process."""
        self.queue.tick()
        return self.reference_step()

    # ------------------------------------------------------------------ #
    # checkpointing

    def round_state(self) -> dict:
        """The round in flight: α, the received count, the accumulator and
        the queue's delay, clock and pending Δs with their visibility ticks.

        Vectors come back per parameter name, so a saved round does not
        depend on the layout.  The reference is public and not included.
        """
        now, pending = self.queue.state()
        return {
            "alpha": self.alpha,
            "received": self._received,
            "queue_delay": self.queue.delay,
            "queue_now": now,
            "queue_visible_at": [t for t, _ in pending],
            "accumulated": self._split(self._acc),
            "queued": [self._split(delta) for _, delta in pending],
        }

    def load_round_state(self, state: Mapping) -> None:
        """Restore what :meth:`round_state` returned, for this membership."""
        self.alpha = state["alpha"]
        self._received = state["received"]
        self._join(state["accumulated"], out=self._acc)  # in place
        self.queue.delay = state["queue_delay"]
        deltas = [self._join(delta) for delta in state["queued"]]
        self.queue.load_state(state["queue_now"], zip(state["queue_visible_at"], deltas))

    # ------------------------------------------------------------------ #
    # introspection

    def reference_model(self, template: PipelineModel) -> PipelineModel:
        """Load the reference weights into ``template`` (for evaluation)."""
        template.load_state_dict(self.reference)
        return template

    def divergence(self) -> float:
        """RMS distance of parallel models from the reference — the
        quantity the elastic term keeps bounded (Figure 5's rationale)."""
        total = 0.0
        count = 0
        for model in self.models:
            for name, param in model.named_parameters():
                diff = param.data.astype(np.float64) - self.reference[name]
                total += float((diff**2).sum())
                count += diff.size
        return float(np.sqrt(total / max(count, 1)))
