"""Training checkpoints.

Long AvgPipe runs (the paper's take days) need restartable state: every
parallel model, every optimizer's moments, the reference weights and the
queue clock.  Checkpoints are a single ``.npz`` file (no pickle — the
state is plain arrays plus a JSON manifest), so they are portable and
diff-able.  A save writes ``<name>.tmp`` beside the target and renames
it over the target, so a save that fails midway leaves the previous
checkpoint loadable.

``save_trainer`` / ``load_trainer`` round-trip an
:class:`~repro.core.trainer.AvgPipeTrainer` exactly: a resumed run
continues bit-identically (tested), which is also what makes the
statistical-efficiency experiments cheap to extend.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.core.trainer import AvgPipeTrainer

__all__ = ["save_trainer", "load_trainer"]

#: v2 adds per-model RNG streams and resizable loads (repro.resilience
#: recovery); v3 drops the manifest's update normalization (the reference
#: always applies the mean) and its alpha-auto bit (the trainer's
#: constructor decides that).  v1 and v2 checkpoints still load.
_FORMAT_VERSION = 3
_SUPPORTED_FORMATS = (1, 2, 3)


def _flatten(prefix: str, state: dict) -> dict[str, np.ndarray]:
    """Flatten a {name: ndarray-or-scalar} dict into npz-safe arrays."""
    out = {}
    for key, value in state.items():
        out[f"{prefix}/{key}"] = np.asarray(value)
    return out


def save_trainer(trainer: AvgPipeTrainer, path: str | pathlib.Path) -> None:
    """Serialize an AvgPipe trainer's full training state to ``path``."""
    path = pathlib.Path(path)
    framework = trainer.framework
    arrays: dict[str, np.ndarray] = {}
    round_state = framework.round_state()
    accumulated, queued = round_state.pop("accumulated"), round_state.pop("queued")
    pipelines = [trainer.pipeline_state(i) for i in range(trainer.num_pipelines)]
    manifest = {
        "format": _FORMAT_VERSION,
        "num_pipelines": trainer.num_pipelines,
        "optimizer_lrs": [state["optimizer"]["lr"] for state in pipelines],
        "rng": [state["rng"] for state in pipelines],
        **round_state,
    }
    for i, state in enumerate(pipelines):
        arrays.update(_flatten(f"model{i}", state["model"]))
    arrays.update(_flatten("reference", framework.reference))
    arrays.update(_flatten("accumulated", accumulated))
    for j, delta in enumerate(queued):
        arrays.update(_flatten(f"queue{j}", delta))
    for i, state in enumerate(pipelines):
        for slot, entry in state["optimizer"]["state"].items():
            for key, value in entry.items():
                arrays[f"opt{i}/{slot}/{key}"] = np.asarray(value)
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    # np.savez's own naming rule, then write-and-rename: a save that
    # fails midway leaves the previous checkpoint in place.
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        if manifest.get("update_normalization", "mean") != "mean":
            raise ValueError(
                "checkpoint has update_normalization="
                f"{manifest['update_normalization']!r}; only 'mean' is supported"
            )
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

        for name, value in section("reference/").items():
            framework.reference[name] = value.copy()
        framework.load_round_state({
            **manifest,
            "accumulated": section("accumulated/"),
            "queued": [section(f"queue{j}/") for j in range(len(manifest["queue_visible_at"]))],
        })
        rngs = manifest.get("rng")  # v1 checkpoints carry no RNG streams
        for i in range(trainer.num_pipelines):
            entries: dict[int, dict] = {}
            for key, value in section(f"opt{i}/").items():
                slot, field = key.split("/", 1)
                entries.setdefault(int(slot), {})[field] = (
                    value.item() if value.ndim == 0 else value
                )
            trainer.load_pipeline_state(i, {
                "model": section(f"model{i}/"),
                "optimizer": {"lr": manifest["optimizer_lrs"][i], "state": entries},
                "rng": rngs[i] if rngs is not None else None,
            })
    return trainer
