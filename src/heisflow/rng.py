"""Seedable 64-bit linear congruential generator for verification suites.

Randomised checks must be reproducible under a generator simple enough to
restate in any language.  The state advances by

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

(Knuth's MMIX constants) and a uniform double in [0, 1) takes the top 53
bits of the fresh state.  Cross-implementation comparisons rely on draw
counts and pass/fail statistics, never on matching the stream itself.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


class Lcg64:
    """Linear congruential generator over the full 64-bit state space."""

    def __init__(self, seed: int = 0):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) from the top 53 bits of one step."""
        x = (self.next_u64() >> 11) * _INV_2_53
        return lo + (hi - lo) * x

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n draws of :meth:`uniform` as an array, without a list of floats."""
        return np.fromiter((self.uniform(lo, hi) for _ in range(n)), float, n)
