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

Derived draws:

* ``uniform()``   -- take the top 53 bits of ``next_u64``; divide by 2**53.
  Range [0, 1).
* ``below(n)``    -- ``(top 53 bits * n) >> 53``.  Uniform enough for desk-
  scale ``n`` (bias < n / 2**53) and trivially portable.
* ``gauss()``     -- Box-Muller.  Each pair of uniforms (u1, u2) yields
  ``r*cos(2*pi*u2)`` and ``r*sin(2*pi*u2)`` with ``r = sqrt(-2*ln(u1))``;
  u1 is shifted into (0, 1] as ``(top53 + 1) / 2**53`` so the log is finite.
  The cosine partner is returned first, the sine partner is cached and
  returned by the next call.  The cache survives across calls, so a sequence
  of gaussian draws is a pure function of the stream position.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
_GAUSS_BLOCK = 1024  # Box-Muller pairs per block: bounds gauss_vector's scratch lists

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1 = 0xBF58476D1CE4E5B9
_SPLITMIX_M2 = 0x94D049BB133111EB

__all__ = ["Rng", "splitmix64", "MASK64"]


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state and return ``(new_state, output)``."""
    state = (state + _SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_M1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_M2) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


class Rng:
    """xorshift128+ stream with uniform, bounded-int and gaussian draws."""

    __slots__ = ("_s0", "_s1", "_gauss_spare")

    def __init__(self, seed: int):
        seed &= MASK64
        sm = seed
        sm, s0 = splitmix64(sm)
        sm, s1 = splitmix64(sm)
        if s0 == 0 and s1 == 0:  # all-zero state would be a fixed point
            s1 = 1
        self._s0 = s0
        self._s1 = s1
        self._gauss_spare: float | None = None

    def next_u64(self) -> int:
        s0 = self._s0
        s1 = self._s1
        result = (s0 + s1) & MASK64
        t = s1 ^ s0
        self._s0 = ((s0 << 55 | s0 >> 9) ^ t ^ t << 14) & MASK64  # rotl(s0, 55) ^ t ^ (t << 14)
        self._s1 = (t << 36 | t >> 28) & MASK64  # rotl(t, 36)
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return ((self.next_u64() >> 11) * n) >> 53

    def gauss(self) -> float:
        """Standard normal draw via Box-Muller (see module docstring)."""
        return float(self.gauss_vector(1)[0])

    def gauss_vector(self, n: int) -> np.ndarray:
        """``n`` gauss() draws as a float64 array, allocated before the first draw.

        Box-Muller runs over blocks of pairs; ``log``, ``sin`` and ``cos`` go
        through ``math`` because numpy's differ in the last bit.
        """
        out = np.empty(np.intp(n))  # an absurd n fails here, before any draw
        done = 0
        if out.size and self._gauss_spare is not None:
            out[0], self._gauss_spare, done = self._gauss_spare, None, 1
        s0, s1, mask = self._s0, self._s1, MASK64
        while done < out.size:
            s0s, s1s = [], []  # the state before each step; its word is their sum
            keep0, keep1 = s0s.append, s1s.append
            for _ in range(2 * min((out.size - done + 1) // 2, _GAUSS_BLOCK)):
                keep0(s0)
                keep1(s1)
                t = s1 ^ s0
                s0 = ((s0 << 55 | s0 >> 9) ^ t ^ t << 14) & mask
                s1 = (t << 36 | t >> 28) & mask
            # uint64 addition wraps mod 2**64; the top 53 bits are exact as float64
            words = np.array(s0s, dtype=np.uint64) + np.array(s1s, dtype=np.uint64)
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
        self._s0, self._s1 = s0, s1
        return out
