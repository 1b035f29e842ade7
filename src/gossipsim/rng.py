"""Deterministic, splittable pseudo-random streams.

Streams are keyed by (seed, index) using SplitMix64: ``child_seed(seed, i)``
is the i-th output of the SplitMix64 sequence started at ``seed``.  Pure
64-bit integer arithmetic, so identical seeds give identical draws on every
platform.  Child streams for distinct indices are independent for all
practical purposes (the finalizer is a high-quality 64-bit bijection).
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = 2.0**-53


def mix64(x: int) -> int:
    """SplitMix64 finalizer, a bijective 64-bit hash."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    x ^= x >> 31
    return x


def child_seed(seed: int, index: int) -> int:
    """Seed of child stream `index` of `seed` (also usable as a draw)."""
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return mix64((seed + (index + 1) * _GAMMA) & _MASK)


def child_seeds(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized `child_seed` over an array of stream indices."""
    x = indices.astype(np.uint64)  # a copy, mixed in place: `indices` is left as it is
    x *= np.uint64(_GAMMA)
    x += np.uint64((seed + _GAMMA) & _MASK)  # (index + 1) * gamma + seed
    tmp = np.empty_like(x)  # one temporary serves the three shifts
    x ^= np.right_shift(x, np.uint64(30), out=tmp)
    x *= np.uint64(_MIX1)
    x ^= np.right_shift(x, np.uint64(27), out=tmp)
    x *= np.uint64(_MIX2)
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def unit_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized uniform draws in [0, 1), one per stream index."""
    return (child_seeds(seed, indices) >> np.uint64(11)) * _UNIT
