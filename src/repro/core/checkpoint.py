"""Training checkpoints.

Long AvgPipe runs (the paper's take days) need restartable state: every
parallel model, every optimizer's moments, the reference weights and the
queue clock.  Checkpoints are a single ``.npz`` file (no pickle — the
state is plain arrays plus a JSON manifest), so they are portable and
diff-able.

``save_trainer`` / ``load_trainer`` round-trip an
:class:`~repro.core.trainer.AvgPipeTrainer` exactly: a resumed run
continues bit-identically (tested), which is also what makes the
statistical-efficiency experiments cheap to extend.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.trainer import AvgPipeTrainer

__all__ = ["save_trainer", "load_trainer"]

#: v2 adds per-model RNG streams, the alpha-auto bit and resizable loads
#: (repro.resilience recovery); v1 checkpoints still load.
_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (1, 2)


def _flatten(prefix: str, state: dict) -> dict[str, np.ndarray]:
    """Flatten a {name: ndarray-or-scalar} dict into npz-safe arrays."""
    out = {}
    for key, value in state.items():
        out[f"{prefix}/{key}"] = np.asarray(value)
    return out


def _model_rng_states(model) -> list[dict]:
    """Every submodule RNG's bit-generator state, in traversal order.

    Dropout/weight-drop streams are part of the training trajectory; a
    deterministic restart-from-checkpoint must resume them mid-stream,
    not re-seed them."""
    return [
        module._rng.bit_generator.state
        for layer in model.layers
        for module in layer.modules()
    ]


def _restore_model_rngs(model, states: list[dict]) -> None:
    modules = [m for layer in model.layers for m in layer.modules()]
    if len(modules) != len(states):
        raise ValueError(
            f"checkpoint has {len(states)} RNG streams, model has {len(modules)} modules"
        )
    for module, state in zip(modules, states):
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        object.__setattr__(module, "_rng", rng)


def save_trainer(trainer: AvgPipeTrainer, path: str | pathlib.Path) -> None:
    """Serialize an AvgPipe trainer's full training state to ``path``."""
    path = pathlib.Path(path)
    framework = trainer.framework
    arrays: dict[str, np.ndarray] = {}
    manifest = {
        "format": _FORMAT_VERSION,
        "num_pipelines": trainer.num_pipelines,
        "alpha": framework.alpha,
        "queue_delay": framework.queue.delay,
        "queue_now": framework.queue.now,
        "update_normalization": framework.update_normalization,
        "optimizer_lrs": [opt.lr for opt in trainer.optimizers],
        "alpha_auto": framework._alpha_auto,
        "rng": [_model_rng_states(m) for m in trainer.models],
    }
    for i, model in enumerate(trainer.models):
        arrays.update(_flatten(f"model{i}", model.state_dict()))
    arrays.update(_flatten("reference", framework.reference))
    # The accumulator and queued deltas are flat vectors in the framework's
    # layout; they are stored per name, so the file format has no layout.
    arrays.update(_flatten("accumulated", framework._split(framework._acc)))
    manifest["received"] = framework._received
    # In-flight queue messages (deltas posted but not yet visible).
    pending = list(framework.queue._pending)
    manifest["queue_visible_at"] = [env.visible_at for env in pending]
    for j, env in enumerate(pending):
        arrays.update(_flatten(f"queue{j}", framework._split(env.payload)))
    for i, opt in enumerate(trainer.optimizers):
        opt_state = opt.state_dict()
        for slot, entry in opt_state["state"].items():
            for key, value in entry.items():
                arrays[f"opt{i}/{slot}/{key}"] = np.asarray(value)
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_trainer(
    trainer: AvgPipeTrainer, path: str | pathlib.Path, allow_resize: bool = False
) -> AvgPipeTrainer:
    """Restore state saved by :func:`save_trainer` into ``trainer``.

    The trainer must have been constructed with the same spec and
    ``num_pipelines``; mismatches raise rather than silently mixing runs.
    With ``allow_resize=True`` a trainer with *more* pipelines than the
    checkpoint is first shrunk to match (the recovery path: a checkpoint
    taken after :meth:`~repro.core.trainer.AvgPipeTrainer.evict_pipeline`
    restarts into a freshly-built N-pipeline trainer) — growing is still
    an error, because the extra models' states would be invented.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
        if manifest["format"] not in _SUPPORTED_FORMATS:
            raise ValueError(f"unsupported checkpoint format {manifest['format']}")
        ckpt_n = manifest["num_pipelines"]
        if ckpt_n != trainer.num_pipelines:
            if not (allow_resize and ckpt_n < trainer.num_pipelines):
                raise ValueError(
                    f"checkpoint has {ckpt_n} pipelines, "
                    f"trainer has {trainer.num_pipelines}"
                )
            while trainer.num_pipelines > ckpt_n:
                trainer.evict_pipeline(trainer.num_pipelines - 1)
        framework = trainer.framework

        def section(prefix: str) -> dict[str, np.ndarray]:
            return {
                key[len(prefix):]: data[key] for key in data.files if key.startswith(prefix)
            }

        for i, model in enumerate(trainer.models):
            model.load_state_dict(section(f"model{i}/"))
        for name, value in section("reference/").items():
            framework.reference[name] = value.copy()
        framework._join(section("accumulated/"), out=framework._acc)  # in place
        framework._received = manifest["received"]
        # Rebuild the in-flight queue with its original visibility clock.
        from repro.core.messages import MessageQueue, _Envelope

        queue = MessageQueue(delay=manifest["queue_delay"], name="updates")
        queue._now = manifest["queue_now"]
        for j, visible_at in enumerate(manifest["queue_visible_at"]):
            payload = framework._join(section(f"queue{j}/"))
            queue._pending.append(_Envelope(payload, visible_at))
        framework.queue = queue
        for i, opt in enumerate(trainer.optimizers):
            prefix = f"opt{i}/"
            entries: dict[int, dict] = {}
            for key in data.files:
                if not key.startswith(prefix):
                    continue
                _, slot, field = key.split("/", 2)
                value = data[key]
                entries.setdefault(int(slot), {})[field] = (
                    value.item() if value.ndim == 0 else value
                )
            opt.load_state_dict({"lr": manifest["optimizer_lrs"][i], "state": entries})
        framework.alpha = manifest["alpha"]
        framework.update_normalization = manifest["update_normalization"]
        framework._alpha_auto = manifest.get("alpha_auto", False)
        for model, states in zip(trainer.models, manifest.get("rng", [])):
            _restore_model_rngs(model, states)
    return trainer
