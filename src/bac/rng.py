"""Deterministic SplitMix64 randomness.

All weights and synthetic episodes are derived from this generator so that a
build is a pure function of (config, seed).  SplitMix64 advances a Weyl
sequence ``state_n = seed + (n+1) * GOLDEN mod 2**64`` and scrambles each state
with two xor-multiply rounds; because the state sequence is closed-form, whole
batches of draws vectorize over numpy uint64 arithmetic.

Constants: GOLDEN = 0x9E3779B97F4A7C15, mix multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB.  Uniform doubles take the top 53 bits of each output.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53

def _wrap():
    # numpy intentionally wraps uint64 arithmetic; silence the overflow
    # warning locally instead of globally (errstate objects are single-use).
    return np.errstate(over="ignore")


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 scrambler applied to ``z`` in place; returns ``z``."""
    with _wrap():
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def mix64(z: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 output scrambler, elementwise over uint64."""
    if np.isscalar(z):
        return _mix(np.array(z, dtype=np.uint64))[()]
    return _mix(z.astype(np.uint64, copy=True))


class SplitMix64:
    """Sequential view over the SplitMix64 stream seeded by ``seed``.

    ``take(n)`` returns the next ``n`` uniforms in [0, 1) as float64; draws are
    positionally stable, so consumers that document their draw order are
    reproducible bit for bit.
    """

    def __init__(self, seed: int):
        if not 0 <= int(seed) <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        self._seed = np.uint64(int(seed))
        self._pos = 0

    # Each draw applies its uint64 or float64 operations in place to one
    # fresh array, in the order of the plain formulas
    # mix64(seed + idx * GOLDEN) >> 11 and (2 * u - 1) * bound, so the bits
    # are the same and no temporary is made per operation.

    def _raw(self, n: int) -> np.ndarray:
        state = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        with _wrap():
            state *= GOLDEN
            state += self._seed
        return _mix(state)

    def take(self, n: int) -> np.ndarray:
        """Next n uniforms in [0, 1)."""
        bits = self._raw(n)
        bits >>= np.uint64(11)
        u = bits.astype(np.float64)
        u *= _INV_2_53
        return u

    def uniform(self, n: int, bound: float) -> np.ndarray:
        """Next n uniforms in [-bound, bound)."""
        u = self.take(n)
        u *= 2.0
        u -= 1.0
        u *= bound
        return u

    def normal(self, n: int) -> np.ndarray:
        """Next n standard normals via Box-Muller.

        Consumes ceil(n/2) pairs of uniforms; u1 is shifted into (0, 1] so the
        log never sees zero.
        """
        pairs = (n + 1) // 2
        u = self.take(2 * pairs)
        u1 = u[:pairs] + _INV_2_53  # exact: u is a multiple of 2**-53 below 1
        u2 = u[pairs:]
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])
        return out[:n]


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for the ``index``-th sub-stream (episodes, sweeps) of ``base_seed``."""
    with _wrap():
        state = np.uint64(base_seed) + np.uint64(index + 1) * GOLDEN
    return int(mix64(state))
