"""Deterministic counter-based randomness.

All randomness in the package flows through :class:`CounterRng`, a SplitMix64
generator used in counter mode: the i-th raw word is ``mix64(seed + (i+1) * GOLDEN)``
where GOLDEN is the 64-bit golden-ratio increment 0x9E3779B97F4A7C15 and
``mix64`` is the standard SplitMix64 finalizer (xor-shift / multiply twice,
final xor-shift).  Counter mode makes every draw a pure function of
``(seed, index)``: streams are reproducible, cheap to fork, and bit-identical
across platforms because only 64-bit integer ops are involved.

Normals come from Box-Muller on pairs of uniforms; complex Gaussians are
(re + 1j*im) with independent standard-normal parts.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function, vectorized over uint64 arrays."""
    # uint64 wraparound is the point here, not a bug
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class CounterRng:
    """SplitMix64 in counter mode; all draws are functions of (seed, counter)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._next = 0

    def _raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words as uint64, advancing the counter."""
        idx = np.arange(self._next + 1, self._next + n + 1, dtype=np.uint64)
        self._next += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), using the top 53 bits of each word."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller (pairs; odd n drops one)."""
        return self._normals(1, n)[0]

    def _normals(self, rows: int, n: int) -> np.ndarray:
        """rows x n normals, row i as the i-th of rows standard_normal(n) calls would draw."""
        m = (n + 1) // 2
        u1, u2 = self.uniform(2 * rows * m).reshape(rows, 2, m).transpose(1, 0, 2)
        # guard log(0); 2^-53 keeps the value finite and the stream deterministic
        u1 = np.where(u1 == 0.0, 2.0 ** -53, u1)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :n]

    def complex_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """Array of complex numbers with independent N(0,1) real/imag parts."""
        re, im = self._normals(2, math.prod(shape))
        return (re + 1j * im).reshape(shape)

    def integers(self, n: int, high: int) -> np.ndarray:
        """n integers in [0, high) by rejection-free modular reduction.

        Bias is at most high / 2^64, negligible for the small `high` used here.
        """
        if high <= 0:
            raise ValueError("high must be positive")
        return (self._raw(n) % np.uint64(high)).astype(np.int64)
