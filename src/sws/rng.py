"""Deterministic randomness built on SplitMix64.

Every random choice in the package (weight init, data synthesis, shuffles,
random layer assignment) flows through this module so results are
bit-reproducible across machines and do not depend on library RNG details.

SplitMix64 is counter-based: output i of a stream seeded with s is
``finalize(s + i * GAMMA)`` (i starting at 1), which lets us produce blocks
with vectorized numpy while keeping the exact same stream as the scalar path.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO53 = float(1 << 53)


def finalize64(x: int) -> int:
    """SplitMix64 output function on a single 64-bit value."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _finalize64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """A seeded 64-bit stream with scalar and block access.

    ``block_u64(n)`` consumes exactly the same n outputs that n calls of
    ``next_u64()`` would, so scalar and vectorized consumers can be mixed.
    """

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return finalize64((self._seed + self._count * GAMMA) & MASK64)

    def block_u64(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            z = np.uint64(self._seed) + idx * np.uint64(GAMMA)
        return _finalize64_np(z)

    # ---- real-valued draws -------------------------------------------------

    def uniform(self) -> float:
        """One double in [0, 1), top 53 bits over 2**53."""
        return (self.next_u64() >> 11) / _TWO53

    def block_uniform(self, n: int) -> np.ndarray:
        return (self.block_u64(n) >> np.uint64(11)).astype(np.float64) / _TWO53

    def block_uniform_signed(self, n: int) -> np.ndarray:
        """Doubles in [-1, 1): the [0, 1) draw mapped by 2u - 1."""
        return 2.0 * self.block_uniform(n) - 1.0

    def block_normal(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        m = (n + 1) // 2
        raw = self.block_u64(2 * m) >> np.uint64(11)
        u1 = (raw[0::2].astype(np.float64) + 1.0) / _TWO53  # (0, 1], safe for log
        u2 = raw[1::2].astype(np.float64) / _TWO53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]

    def truncated_normal(self, shape, std: float = 1.0, bound: float = 2.0) -> np.ndarray:
        """Normal(0, std) with draws outside bound*sigma rejected and redrawn."""
        size = int(np.prod(shape)) if shape else 1
        kept: list[np.ndarray] = [np.empty(0)]  # a zero-size shape draws nothing
        need = size
        while need > 0:
            z = self.block_normal(need)
            z = z[np.abs(z) <= bound]
            kept.append(z)
            need = size - sum(len(k) for k in kept)
        out = np.concatenate(kept)[:size] * std
        return out.reshape(shape)

    # ---- integer draws -----------------------------------------------------

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


def derive_seed(base: int, *parts: int) -> int:
    """Fold extra integers into a base seed, for per-epoch streams etc."""
    s = base & MASK64
    for p in parts:
        s = finalize64(s ^ finalize64((p + GAMMA) & MASK64))
    return s
