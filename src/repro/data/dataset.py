"""Dataset / DataLoader abstractions.

``DataLoader`` yields dictionaries of ndarrays.  It supports deterministic
shuffling (per-epoch derived RNG) and — critical for the pipeline
runtimes — ``split_microbatches`` which slices one batch into M
equally-sized micro-batches the way GPipe/AvgPipe feed a pipeline.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.utils.seeding import derive_rng

__all__ = ["Dataset", "ArrayDataset", "DataLoader", "split_microbatches"]


class Dataset:
    """Minimal map-style dataset protocol."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Mapping[str, np.ndarray]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset over parallel ndarrays sharing a leading dimension."""

    def __init__(self, **arrays: np.ndarray) -> None:
        if not arrays:
            raise ValueError("ArrayDataset needs at least one array")
        lengths = {k: len(v) for k, v in arrays.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"array length mismatch: {lengths}")
        self.arrays = {k: np.asarray(v) for k, v in arrays.items()}
        self._length = next(iter(lengths.values()))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> dict[str, np.ndarray]:
        return {k: v[index] for k, v in self.arrays.items()}


class DataLoader:
    """Batches an :class:`ArrayDataset` with deterministic shuffling."""

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if drop_last and len(dataset) < batch_size:
            raise ValueError(f"dataset of {len(dataset)} smaller than batch_size {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        return n // self.batch_size if self.drop_last else (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[dict[str, np.ndarray]]:
        n = len(self.dataset)
        if self.shuffle:
            order = derive_rng("dataloader", self.epoch, seed=self.seed).permutation(n)
        else:
            order = np.arange(n)
        self.epoch += 1
        limit = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, limit, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield {k: v[idx] for k, v in self.dataset.arrays.items()}


def split_microbatches(batch: Mapping[str, np.ndarray], num_micro: int) -> list[dict[str, np.ndarray]]:
    """Slice one batch into ``num_micro`` equal micro-batches along axis 0.

    The batch size must divide evenly — pipeline schedules assume uniform
    micro-batch compute cost, and so does the paper's tuner.
    """
    sizes = {k: len(v) for k, v in batch.items()}
    batch_size = next(iter(sizes.values()))
    if any(s != batch_size for s in sizes.values()):
        raise ValueError(f"ragged batch: {sizes}")
    if num_micro <= 0:
        raise ValueError(f"num_micro must be positive, got {num_micro}")
    if batch_size % num_micro != 0:
        raise ValueError(f"batch size {batch_size} not divisible into {num_micro} micro-batches")
    micro = batch_size // num_micro
    return [
        {k: v[i * micro : (i + 1) * micro] for k, v in batch.items()} for i in range(num_micro)
    ]
