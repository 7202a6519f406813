"""Deterministic seeding helpers.

Every stochastic component in the library (weight init, dropout, data
generation, simulator jitter) draws from a :class:`numpy.random.Generator`
derived from an explicit seed.  Nothing reads global NumPy state, so two
runs with the same top-level seed are bit-identical regardless of import
order or interleaving — a prerequisite for the statistical-efficiency
experiments where systems are compared at fixed seeds.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_rng"]

#: the seed :func:`derive_rng` uses when the caller passes none
_DEFAULT_SEED: int = 0


def _mix(seed: int, *tags: str | int) -> int:
    """Hash ``seed`` with a sequence of string/int tags into a 64-bit seed.

    Uses BLAKE2 so that distinct tag paths give statistically independent
    streams; plain arithmetic mixing (seed + hash(tag)) correlates streams.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    for tag in tags:
        h.update(str(tag).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def derive_rng(*tags: str | int, seed: int | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the stream named by ``tags``.

    >>> rng = derive_rng("model-init", 3, seed=42)
    """
    base = _DEFAULT_SEED if seed is None else int(seed)
    return np.random.default_rng(_mix(base, *tags))
