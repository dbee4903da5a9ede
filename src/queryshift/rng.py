"""Deterministic 64-bit PRNG used for every random draw in this package.

Scene generation must be reproducible bit-for-bit from a single integer seed,
on any platform and from any language that reimplements the generator.  That
rules out delegating to a host library's RNG, so the generator is written out
here in full.  The algorithm is xorshift128+ (Vigna, "Further scramblings of
Marsaglia's xorshift generators"), with its two 64-bit state words initialised
by consecutive outputs of splitmix64 (Steele, Lea & Flood) applied to the seed.

State update, all arithmetic modulo 2**64::

    splitmix64(x):
        x = (x + 0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return x, z ^ (z >> 31)

    seeding:   s0 <- splitmix64 output 1 of seed
               s1 <- splitmix64 output 2 of seed
               (if both outputs are zero, s1 is set to 1)

    next_u64:  r  = s0 + s1
               t  = s1 ^ s0
               s0 <- rotl(s0, 55) ^ t ^ (t << 14)
               s1 <- rotl(t, 36)
               return r

Derived draws take the top 53 bits of a word, ``top53 = next_u64 >> 11``;
``top53 / 2**53`` is a uniform double in [0, 1) with 53 random bits.

* ``below(n)``    -- ``(top53 * n) >> 53``.  Uniform enough for desk-scale
  ``n`` (bias < n / 2**53) and trivially portable.
* ``gauss_vector(n)`` -- n Box-Muller draws.  Each pair of uniforms (u1, u2)
  yields ``r*cos(2*pi*u2)``, then ``r*sin(2*pi*u2)``, with ``r = sqrt(-2*ln(u1))``;
  u1 is shifted into (0, 1] as ``(top53 + 1) / 2**53`` so the log is finite.
  An odd n caches the last sine for the next call, so a sequence of gaussian
  draws is a pure function of the stream position, however it is split.

``gauss_vector`` makes the ``next_u64`` words with no Python step per word.  The
update is linear over GF(2), so the state k steps on from any start is the
XOR, over the start's set bits, of the states k steps on from the 128 unit
states.  A (128, 129, 2) uint64 table of those (264 KB, built once at import)
makes a block of up to 128 words one XOR-reduce and one wrapping add.
"""

from __future__ import annotations

import math

import numpy as np

from .core import json_value

MASK64 = (1 << 64) - 1
_GAUSS_BLOCK = 1024  # Box-Muller pairs per block: bounds gauss_vector's scratch lists
# words per table block: a 264 KB table built in ~2 ms; a 1 MB one (512) costs set-up and RSS
_STREAM_BLOCK = 128

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1 = 0xBF58476D1CE4E5B9
_SPLITMIX_M2 = 0x94D049BB133111EB

__all__ = ["Rng"]


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state and return ``(new_state, output)``."""
    state = (state + _SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_M1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_M2) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


def _unit_state_table(steps: int) -> np.ndarray:
    """(128, steps + 1, 2) uint64: row b, the (s0, s1) states 0..steps steps on from bit b."""
    units = np.packbits(np.eye(128, dtype=np.uint8), axis=1, bitorder="little").view("<u8")
    s0, s1 = units[:, 0], units[:, 1]
    table = np.empty((128, steps + 1, 2), "<u8")
    for k in range(steps + 1):
        table[:, k, 0], table[:, k, 1] = s0, s1
        t = s1 ^ s0
        s0 = (s0 << 55 | s0 >> 9) ^ t ^ t << 14  # uint64 shifts drop the high bits
        s1 = t << 36 | t >> 28
    table.setflags(write=False)
    return table


_UNIT_STATES = _unit_state_table(_STREAM_BLOCK)


class Rng:
    """xorshift128+ stream with bounded-int and gaussian draws."""

    __slots__ = ("_s0", "_s1", "_gauss_spare")

    def __init__(self, seed: int):
        sm, s0 = splitmix64(json_value("seed", seed, int) & MASK64)
        _, s1 = splitmix64(sm)
        if s0 == 0 and s1 == 0:  # all-zero state would be a fixed point
            s1 = 1
        self._s0, self._s1 = s0, s1
        self._gauss_spare: float | None = None

    def next_u64(self) -> int:
        s0, s1 = self._s0, self._s1
        result = (s0 + s1) & MASK64
        t = s1 ^ s0
        self._s0 = ((s0 << 55 | s0 >> 9) ^ t ^ t << 14) & MASK64  # rotl(s0, 55) ^ t ^ (t << 14)
        self._s1 = (t << 36 | t >> 28) & MASK64  # rotl(t, 36)
        return result

    def _words(self, n: int) -> np.ndarray:
        """The next ``n`` ``next_u64`` words as a uint64 array, a table block at a time."""
        words = np.empty(n, np.uint64)
        state = np.array([self._s0, self._s1], "<u8")
        for lo in range(0, n, _STREAM_BLOCK):
            k = min(n - lo, _STREAM_BLOCK)
            bits = np.flatnonzero(np.unpackbits(state.view(np.uint8), bitorder="little"))
            states = np.bitwise_xor.reduce(_UNIT_STATES[bits, : k + 1], axis=0)
            np.add(states[:k, 0], states[:k, 1], out=words[lo : lo + k])  # wraps mod 2**64
            state = states[k]
        self._s0, self._s1 = int(state[0]), int(state[1])
        return words

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if json_value("n", n, int) <= 0:
            raise ValueError("below() requires n >= 1")
        return ((self.next_u64() >> 11) * n) >> 53

    def gauss_vector(self, n: int) -> np.ndarray:
        """``n`` standard normal draws as a float64 array, allocated before the first draw.

        Box-Muller runs over blocks of pairs of table-made words; ``log``,
        ``sin`` and ``cos`` go through ``math``: numpy's differ in the last bit.
        """
        out = np.empty(np.intp(json_value("n", n, int)))  # an absurd n fails here, before any draw
        done = 0
        if out.size and self._gauss_spare is not None:
            out[0], self._gauss_spare, done = self._gauss_spare, None, 1
        while done < out.size:
            words = self._words(2 * min((out.size - done + 1) // 2, _GAUSS_BLOCK))
            bits = (words >> np.uint64(11)).astype(np.float64)
            u1 = ((bits[0::2] + 1.0) * 2.0**-53).tolist()  # (0, 1]
            theta = (2.0 * math.pi * (bits[1::2] * 2.0**-53)).tolist()
            r = np.sqrt(-2.0 * np.array(list(map(math.log, u1))))
            trig = np.array([list(map(math.cos, theta)), list(map(math.sin, theta))])
            draws = (r * trig).T.ravel()  # cos, sin, cos, sin, ...
            out[done : done + draws.size] = draws[: out.size - done]
            if done + draws.size > out.size:  # an odd count keeps the last sine
                self._gauss_spare = float(draws[-1])
            done += draws.size
        return out
