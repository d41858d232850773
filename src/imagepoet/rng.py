"""Deterministic random number generation.

The generator is SplitMix64: the i-th draw mixes the state
``seed + i * 0x9E3779B97F4A7C15 (mod 2**64)`` through the finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Because the stream is counter-based, scalar and vectorized draws produce
the same sequence, and identical seeds reproduce identical sequences on
any platform.  A vectorized draw (fill_uniform) is one in-place sweep
over its array, block by block, each block starting at its own counter;
past two blocks the blocks are split between the calling thread and one
worker thread, which changes no bit.  A model's parameters are drawn by
one such sweep over the one array they are views of, in checkpoint
order (model.init_params).  Doubles are built from the top 53 bits:
``(z >> 11) * 2**-53`` in [0, 1).
"""

import numpy as np

from .numerics import SWEEP_BLOCK, sweep

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
# Draw i of a block is its base state plus _STEPS[i - 1], mod 2**64.
_STEPS = np.arange(1, SWEEP_BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)),
           (np.uint64(27), np.uint64(_MIX2)))


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
        """n doubles from the same stream (fill_uniform)."""
        return self.fill_uniform(np.empty(n), lo, hi)

    def fill_uniform(self, out, lo=0.0, hi=1.0):
        """Fill the 1-d float64 array out, in place, with the stream's
        next out.size doubles, uniform in [lo, hi); return out.

        One sweep over out in blocks of SWEEP_BLOCK values (numerics.sweep),
        each block starting at its own counter, through two uint64 scratch
        arrays per thread and the shared table of i * GAMMA, so a block
        allocates nothing.  The arithmetic is the scalar draw's, element
        for element, on either thread.
        """
        n = out.size
        base = self.seed + self._counter * _GAMMA
        width = min(n, SWEEP_BLOCK)
        scratch = [(np.empty(width, np.uint64), np.empty(width, np.uint64))
                   for _ in range(2)]

        def fill(start, temps):
            m = min(SWEEP_BLOCK, n - start)
            z, t = temps[0][:m], temps[1][:m]
            np.add(_STEPS[:m], np.uint64((base + start * _GAMMA) & _MASK),
                   out=z)
            for shift, mix in _ROUNDS:
                z ^= np.right_shift(z, shift, out=t)
                z *= mix
            z ^= np.right_shift(z, np.uint64(31), out=t)
            z >>= np.uint64(11)
            part = np.multiply(z, 2.0 ** -53, out=out[start:start + m])
            part *= hi - lo
            part += lo

        sweep(fill, range(0, n, SWEEP_BLOCK), n, scratch)
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
