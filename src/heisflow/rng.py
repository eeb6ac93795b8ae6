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


def _step_maps(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The i-step maps (A_i, C_i), i = 1..k, as uint64 arrays: i steps take
    a state s to A_i s + C_i mod 2**64.  They are built by doubling, maps
    j+1..2j being maps 1..j applied after the j-step map.  Products on
    uint64 arrays wrap mod 2**64 silently, where a product of two numpy
    scalars would warn."""
    a, c = np.array([_MULT], np.uint64), np.array([_INC], np.uint64)
    while len(a) < k:
        a, c = np.concatenate((a, a * a[-1])), np.concatenate((c, a * c[-1] + c))
    return a[:k], c[:k]


# the maps of one block of draws of Lcg64.uniforms
_BLOCK_MAPS = _step_maps(1024)


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
        """n draws of :meth:`uniform` as an array, leaving the state at the
        last draw, as n calls do: a block of states at a time, each from the
        state before the block through :data:`_BLOCK_MAPS`."""
        out = np.empty(n)
        state = np.uint64(self.state)
        a, c = _BLOCK_MAPS
        for i in range(0, n, len(a)):
            states = a[: n - i] * state + c[: n - i]
            out[i : i + len(states)] = states >> np.uint64(11)
            state = states[-1]
        self.state = int(state)
        out *= _INV_2_53
        out *= hi - lo
        out += lo
        return out
