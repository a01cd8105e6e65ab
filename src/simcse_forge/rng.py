"""Deterministic random number generation.

The repo-wide generator is SplitMix64: a 64-bit counter advanced by the
golden-ratio increment 0x9E3779B97F4A7C15, with each output produced by a
fixed xor-shift/multiply finalizer. The same seed yields the same stream of
draws on every platform (all arithmetic is modulo 2**64), which is what makes
dropout masks and data shuffles reproducible bit-for-bit.

Draws are vectorized over numpy uint64 arrays, so sampling a million-unit
dropout mask costs one array pass instead of a Python loop.

Output j depends only on the state and j, so a dropout mask is keyed:
``bernoulli`` takes one output as a key, and a mask row is a function of the
key and the row's number alone, computed only for the rows it returns.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)


def _finalize(z: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 output finalizer to z in place and return it."""
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


class Rng:
    """SplitMix64 stream. One instance = one sequentially consumed stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _raw(self, n: int) -> np.ndarray:
        """Next n 64-bit outputs as a uint64 array."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        _finalize(z)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return z

    def _key(self) -> int:
        """The next output as a Python int: ``_raw(1)[0]`` with the same state
        change, in integer arithmetic rather than a one-element array pass."""
        self._state = z = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws in [0, 1): an output's top 53 bits k, as k * 2**-53."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape) if shape else u[0]

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on consecutive uniform pairs."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        m = (n + 1) // 2
        raw = self._raw(2 * m)
        # u1 in (0, 1] so the log is finite
        u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        z = mean + std * z
        return z.reshape(shape) if shape else z[0]

    def bernoulli(self, keep_prob, shape=(), dtype=np.float64, rows=None) -> np.ndarray:
        """0/1 mask; entry is 1 with probability keep_prob (scalar or array,
        broadcast against shape). dtype=bool returns the comparison itself.

        The stream gives one output, the key, whatever the shape. Entry (i, u)
        is ``Rng(key).uniform((R, w))[rows[i], u] < keep_prob`` for any R past
        max(rows), w = prod(shape[1:]); rows holds an integer per row of
        shape, by default 0..shape[0]-1."""
        keep = np.asarray(keep_prob, dtype=np.float64)
        shape = tuple(shape) if shape else keep.shape
        width = math.prod(shape[1:])
        rows = np.arange(shape[0] if shape else 1) if rows is None else rows
        # counter rows[i]*w + u + 1 of the key's stream, the key added per row
        base = np.asarray(rows, dtype=np.uint64) * np.uint64(width * _GOLDEN & _MASK64)
        base += np.uint64(self._key())
        k = base[:, None] + np.arange(1, width + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        _finalize(k)
        k >>= np.uint64(11)
        # k * 2**-53 < keep  <=>  k < keep * 2**53: both scalings by 2**53 are
        # exact and k < 2**53 converts to float64 exactly, so the mask equals
        # uniform() < keep without building the uniform array.
        k = k.reshape(shape) if shape else k[0, 0]
        return (k < keep * 2.0**53).astype(dtype, copy=False)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        n = len(items)
        if n < 2:
            return
        u = self.uniform((n - 1,))
        for i in range(n - 1, 0, -1):
            j = int(u[n - 1 - i] * (i + 1))
            items[i], items[j] = items[j], items[i]
