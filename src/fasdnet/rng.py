"""Deterministic random number generation.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer, the
same stream used to seed xoshiro/xoroshiro generators). It is pinned
here on purpose: the algorithm is a handful of integer operations, so
any implementation in any language that follows the constants below
reproduces the exact same stream for the same seed. Every source of
randomness in the toolkit (weight init, shuffles, balancing, synthetic
data) flows through this class, which is what makes whole experiment
runs bit-reproducible from a single seed.

State update per draw:
    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output = z XOR (z >> 31)

Uniform doubles take the top 53 bits of the output, giving values in
[0, 1). Gaussians use the Box-Muller transform. Shuffles are
Fisher-Yates with rejection sampling for the index draw, so every
permutation is exactly equally likely.

The state is a counter, so draw k after state s is mix(s + k * gamma),
a function of k alone. uint64s, uniforms and normals use that to
compute the next n draws with numpy array operations (normals in
fixed-size blocks, to bound the temporaries); they return exactly the
values, in order, that n calls of next_uint64, next_uniform or
next_normal would, and leave the generator in the same state. The
scalar methods stay the reference definition.

The block normals' cosines and logarithms keep math.cos's and
math.log's bits as README's Determinism section sets out.
"""

from __future__ import annotations

import math
import os

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the SplitMix64 increment
_BLOCK = 8192  # normals per block; bounds the temporaries of a large draw
# whether np.cos is known to round as math.cos does: checked for the
# numpy versions listed here only (see README's Determinism section)
_LIBM_COS = np.__version__.split(".")[:2] == ["2", "4"]
try:  # confstr, or the name, or its value is missing off glibc
    _GLIBC = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
except (AttributeError, ValueError, OSError):
    _GLIBC = False
# whether logl rounded to double can stand in for math.log (see README)
_LOGL = np.finfo(np.longdouble).nmant == 63 and _GLIBC


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Mix a base seed with a stream index into an independent seed.

    Used to hand each sub-task of an experiment (balancing, splitting,
    weight init, parallel runs) its own generator without correlation.
    The scheme is itself SplitMix64: mix(seed + (stream + 1) * gamma).
    """
    return _mix64((seed + (stream + 1) * _GAMMA) & _MASK64)


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of each value of x (positive float64s), with its bits."""
    if not _LOGL:
        return np.fromiter(map(math.log, x.tolist()), float, len(x))
    wide = np.log(x.astype(np.longdouble))
    out = wide.astype(np.float64)
    mag = np.abs(out)
    # wide - out is exact, and fits a double; log may round otherwise only
    # near a midpoint, or below a power of two, where the ulp is half as wide
    redo = np.flatnonzero(
        (np.abs((wide - out).astype(np.float64)) > 0.4375 * np.spacing(mag))
        | (np.frexp(mag)[0] == 0.5))
    out[redo] = np.fromiter(map(math.log, x[redo].tolist()), float, len(redo))
    return out


class SeededRng:
    """SplitMix64 stream; single-owner, never shared between tasks."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_normal(self) -> float:
        """Standard normal via Box-Muller on two fresh uniforms."""
        # shift into (0, 1] so log() is always defined
        u1 = ((self.next_uint64() >> 11) + 1) * 2.0**-53
        u2 = self.next_uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def uint64s(self, n: int) -> np.ndarray:
        """The next n next_uint64 draws as one uint64 array."""
        z = np.arange(1, n + 1, dtype=np.uint64)  # uint64 arrays wrap
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """The next n next_uniform draws as one float64 array."""
        return (self.uint64s(n) >> np.uint64(11)) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """The next n next_normal draws as one float64 array."""
        out = np.empty(n)
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            bits = self.uint64s(2 * m) >> np.uint64(11)
            u1 = (bits[0::2] + np.uint64(1)) * 2.0**-53
            u2 = bits[1::2] * 2.0**-53
            r = out[start:start + m]
            np.sqrt(-2.0 * _logs(u1), out=r)
            angles = 2.0 * math.pi * u2
            if _LIBM_COS:
                r *= np.cos(angles)
            else:
                r *= np.fromiter(map(math.cos, angles.tolist()), float, m)
        return out

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) with rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError(f"next_below needs n >= 1, got {n}")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            x = self.next_uint64()
            if x < limit:
                return x % n

    def shuffle(self, n: int) -> list[int]:
        """Uniform Fisher-Yates permutation of 0..n-1."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def derive(self, stream: int) -> "SeededRng":
        """Fresh generator for a sub-task; see derive_seed."""
        return SeededRng(derive_seed(self.seed, stream))
