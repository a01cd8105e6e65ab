"""Deterministic random number generation.

The repo-wide generator is SplitMix64: a 64-bit counter advanced by the
golden-ratio increment 0x9E3779B97F4A7C15, with each output produced by a
fixed xor-shift/multiply finalizer. The same seed yields the same stream of
draws on every platform (all arithmetic is modulo 2**64), which is what makes
dropout masks and data shuffles reproducible bit-for-bit.

Draws are vectorized over numpy uint64 arrays, so sampling a million-unit
dropout mask costs one array pass instead of a Python loop.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


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

    def _bits53(self, shape) -> np.ndarray:
        """Next draws as 53-bit integers k, one per entry of shape (a scalar
        for shape ()); the uniform draw is k * 2**-53."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        k = self._raw(n)
        k >>= np.uint64(11)
        return k.reshape(shape) if shape else k[0]

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws in [0, 1) with 53-bit resolution."""
        return self._bits53(shape).astype(np.float64) * 2.0**-53

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
        """0/1 mask; entry is 1 with probability keep_prob (scalar or array).
        dtype=bool returns the comparison itself, one byte per entry.

        Given rows, an index over shape's first axis, returns
        ``bernoulli(keep_prob, shape)[rows]``, with keep_prob broadcast
        against the picked rows: the whole shape is drawn, so the stream
        advances as for a full draw, and only the picked rows are compared."""
        keep = np.asarray(keep_prob, dtype=np.float64)
        # k * 2**-53 < keep  <=>  k < keep * 2**53: both scalings by 2**53 are
        # exact and k < 2**53 converts to float64 exactly, so the mask equals
        # uniform() < keep without building the uniform array.
        k = self._bits53(shape if shape else keep.shape)
        if rows is not None:
            k = k[rows]
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
