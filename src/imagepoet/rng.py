"""Deterministic random number generation.

The generator is SplitMix64: the i-th draw mixes the state
``seed + i * 0x9E3779B97F4A7C15 (mod 2**64)`` through the finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Because the stream is counter-based, scalar and vectorized draws produce
the same sequence (a vectorized draw is filled block by block, each block
starting at its own counter), and identical seeds reproduce identical
sequences on any platform.  Doubles are built from the top 53 bits:
``(z >> 11) * 2**-53`` in [0, 1).
"""

import numpy as np

from .numerics import SWEEP_BLOCK

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


class SeededRng:
    """SplitMix64 stream identified by a 64-bit seed."""

    def __init__(self, seed):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def next_uint64(self):
        """Next raw 64-bit draw."""
        self._counter += 1
        z = (self.seed + self._counter * _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self, lo=0.0, hi=1.0):
        """One double, uniform in [lo, hi)."""
        u = (self.next_uint64() >> 11) * 2.0 ** -53
        return lo + u * (hi - lo)

    def uniform_array(self, n, lo=0.0, hi=1.0):
        """n doubles from the same stream, vectorized block by block."""
        out = np.empty(n)
        for start in range(0, n, SWEEP_BLOCK):
            stop = min(start + SWEEP_BLOCK, n)
            with np.errstate(over="ignore"):
                counters = np.arange(self._counter + start + 1,
                                     self._counter + stop + 1, dtype=np.uint64)
                z = np.uint64(self.seed) + counters * np.uint64(_GAMMA)
                z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
                z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
                z = z ^ (z >> np.uint64(31))
            u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
            out[start:stop] = lo + u * (hi - lo)
        self._counter += n
        return out

    def below(self, n):
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % n

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
