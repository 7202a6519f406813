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
statistical-efficiency experiments cheap to extend.  A file that cannot
be loaded raises :class:`CheckpointError`, which names the file and the
failing key.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.core.trainer import AvgPipeTrainer, _rng_modules

__all__ = ["CheckpointError", "save_trainer", "load_trainer"]

#: v2 adds per-model RNG streams and resizable loads (repro.resilience
#: recovery); v3 drops the manifest's update normalization (the reference
#: always applies the mean) and its alpha-auto bit (the trainer's
#: constructor decides that).  v1 and v2 checkpoints still load.
_FORMAT_VERSION = 3
_SUPPORTED_FORMATS = (1, 2, 3)
#: Manifest fields every supported format carries.
_MANIFEST_FIELDS = (
    "format", "num_pipelines", "optimizer_lrs",
    "alpha", "received", "queue_delay", "queue_now", "queue_visible_at",
)


class CheckpointError(ValueError):
    """A checkpoint that cannot be loaded: unreadable, damaged, missing a
    key, or saved by another kind of run.

    ``path`` is the file; ``key`` is the array or manifest field that
    failed, or None when the file is not a readable archive at all.
    """

    def __init__(self, path: str | pathlib.Path, key: str | None, reason: str) -> None:
        self.path = pathlib.Path(path)
        self.key = key
        where = "" if key is None else f" key {key!r}:"
        super().__init__(f"checkpoint {self.path}:{where} {reason}")


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


def _open_checked(path: pathlib.Path):
    """The npz archive at ``path``, open, and the shape of every array in
    it.  Each member is read whole here, one at a time, so that zipfile
    checks its CRC-32 as the read reaches its end: a damaged byte anywhere
    in a member fails here, not later as a quietly different array.  Only
    the shapes are kept, so a load holds no more of the file at once than
    before this check."""
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:  # a truncated or foreign file fails in any zip or npy check
        raise CheckpointError(path, None, f"not a readable archive ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError(path, None, "not an npz archive")
    shapes = {}
    for key in data.files:
        try:
            shapes[key] = data[key].shape
        except Exception as exc:  # damaged bytes surface as any zip or npy error
            data.close()
            raise CheckpointError(path, key, f"damaged ({exc})") from exc
    return data, shapes


def _check_arrays(
    path: pathlib.Path, stored: dict, trainer: AvgPipeTrainer, ckpt_n: int, queued: int
) -> None:
    """Every reference, accumulator, queued-delta, model and optimizer
    array the trainer needs is in ``stored`` (key -> shape) with the
    trainer's shape, and those sections hold no key the trainer lacks."""
    reference = trainer.framework.reference
    shapes = {}
    for prefix in ["reference", "accumulated"] + [f"queue{j}" for j in range(queued)]:
        shapes.update((f"{prefix}/{name}", value.shape) for name, value in reference.items())
    for i in range(ckpt_n):
        shapes.update(
            (f"model{i}/{name}", p.shape) for name, p in trainer.models[i].named_parameters()
        )
    # opt{i}/{slot}/{field}: slot indexes the optimizer's parameters, and
    # every non-scalar field has that parameter's shape.
    slots = {f"opt{i}": [p.shape for p in trainer.optimizers[i].params] for i in range(ckpt_n)}
    sections = {key.split("/", 1)[0] for key in shapes}
    for key, shape in shapes.items():
        if key not in stored:
            raise CheckpointError(path, key, "missing from the archive")
        if stored[key] != shape:
            raise CheckpointError(path, key, f"shape {stored[key]}, trainer has {shape}")
    for key, stored_shape in stored.items():
        section, _, rest = key.partition("/")
        if section in sections and key not in shapes:
            raise CheckpointError(path, key, "not a key of this trainer")
        params = slots.get(section)
        if params is not None:
            slot = rest.split("/", 1)[0]
            if not slot.isdigit() or int(slot) >= len(params):
                raise CheckpointError(path, key, f"optimizer has {len(params)} parameters")
            if stored_shape and stored_shape != params[int(slot)]:
                raise CheckpointError(
                    path, key, f"shape {stored_shape}, parameter has {params[int(slot)]}"
                )


def _check_per_pipeline(
    path: pathlib.Path, manifest: dict, trainer: AvgPipeTrainer, ckpt_n: int
) -> None:
    """One learning rate and (v2 on) one RNG stream list per pipeline,
    with a stream for every module of the trainer's model that owns one."""
    lrs = len(manifest["optimizer_lrs"])
    if lrs != ckpt_n:
        raise CheckpointError(path, "optimizer_lrs", f"{lrs} entries for {ckpt_n} pipelines")
    rngs = manifest.get("rng")  # v1 checkpoints carry no RNG streams
    if rngs is None:
        return
    if len(rngs) != ckpt_n:
        raise CheckpointError(path, "rng", f"{len(rngs)} entries for {ckpt_n} pipelines")
    for i in range(ckpt_n):
        modules = len(_rng_modules(trainer.models[i]))
        if len(rngs[i]) != modules:
            raise CheckpointError(
                path, "rng",
                f"pipeline {i} has {len(rngs[i])} RNG streams, model has {modules} modules",
            )


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

    Every failure raises :class:`CheckpointError`: a file that is no
    readable archive, a damaged member, a missing manifest field, model,
    reference, accumulator or queued-delta array, or a checkpoint saved by
    another kind of run (an array of another shape, a key the trainer
    lacks, another number of pipelines or RNG streams).  All of these are
    found before the trainer is touched.
    """
    path = pathlib.Path(path)
    data, stored = _open_checked(path)
    with data:
        if "__manifest__" not in stored:
            raise CheckpointError(path, "__manifest__", "missing from the archive")
        try:
            manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(path, "__manifest__", f"not a JSON manifest ({exc})") from exc
        for field in _MANIFEST_FIELDS:
            if field not in manifest:
                raise CheckpointError(path, field, "missing from the manifest")
        if manifest["format"] not in _SUPPORTED_FORMATS:
            raise CheckpointError(
                path, "format", f"unsupported checkpoint format {manifest['format']}"
            )
        if manifest.get("update_normalization", "mean") != "mean":
            raise CheckpointError(
                path, "update_normalization",
                f"update_normalization={manifest['update_normalization']!r}; "
                "only 'mean' is supported",
            )
        ckpt_n = manifest["num_pipelines"]
        shrink = allow_resize and ckpt_n < trainer.num_pipelines
        if ckpt_n != trainer.num_pipelines and not shrink:
            raise CheckpointError(
                path, "num_pipelines",
                f"checkpoint has {ckpt_n} pipelines, trainer has {trainer.num_pipelines}",
            )
        framework = trainer.framework
        queued = len(manifest["queue_visible_at"])
        _check_arrays(path, stored, trainer, ckpt_n, queued)
        _check_per_pipeline(path, manifest, trainer, ckpt_n)

        while trainer.num_pipelines > ckpt_n:
            trainer.evict_pipeline(trainer.num_pipelines - 1)

        def section(prefix: str) -> dict[str, np.ndarray]:
            return {
                key[len(prefix):]: data[key] for key in data.files if key.startswith(prefix)
            }

        for name, value in section("reference/").items():
            framework.reference[name] = value.copy()
        framework.load_round_state({
            **manifest,
            "accumulated": section("accumulated/"),
            "queued": [section(f"queue{j}/") for j in range(queued)],
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
