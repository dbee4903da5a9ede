"""Tests for the deterministic PRNG.

The generator is spelled out in rng.py's docstring precisely so that an
independent transcription of that text can serve as the oracle here.  The
reference below was written from the docstring alone, not from the module
code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryshift.rng import MASK64, Rng, splitmix64

# ---------------------------------------------------------------------------
# independent reference transcription
# ---------------------------------------------------------------------------


def _ref_splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return x, (z ^ (z >> 31)) & MASK64


def _ref_rotl(v, k):
    return ((v << k) | (v >> (64 - k))) & MASK64


class _RefStream:
    def __init__(self, seed):
        sm = seed & MASK64
        sm, s0 = _ref_splitmix64(sm)
        sm, s1 = _ref_splitmix64(sm)
        if s0 == 0 and s1 == 0:
            s1 = 1
        self.s0 = s0
        self.s1 = s1

    def next_u64(self):
        r = (self.s0 + self.s1) & MASK64
        t = self.s1 ^ self.s0
        self.s0 = _ref_rotl(self.s0, 55) ^ t ^ ((t << 14) & MASK64)
        self.s1 = _ref_rotl(t, 36)
        return r


def test_splitmix64_reference_agreement():
    state = state_r = 12345
    for _ in range(100):
        state, o = splitmix64(state)
        state_r, o_r = _ref_splitmix64(state_r)
        assert (state, o) == (state_r, o_r)


@given(st.integers(min_value=0, max_value=MASK64))
@settings(max_examples=50, deadline=None)
def test_raw_stream_matches_reference(seed):
    rng = Rng(seed)
    ref = _RefStream(seed)
    for _ in range(64):
        assert rng.next_u64() == ref.next_u64()


def test_same_seed_same_stream():
    a = Rng(42)
    b = Rng(42)
    assert [a.next_u64() for _ in range(256)] == [b.next_u64() for _ in range(256)]


def test_different_seeds_differ():
    a = [Rng(1).next_u64() for _ in range(8)]
    b = [Rng(2).next_u64() for _ in range(8)]
    assert a != b


def test_seed_masked_to_64_bits():
    wide = (1 << 64) + 7
    assert Rng(wide).next_u64() == Rng(7).next_u64()


def test_uniform_range_and_resolution():
    rng = Rng(3)
    draws = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # 53-bit mantissa: every draw is a multiple of 2**-53
    assert all(u == (int(u * 2**53) * 2.0**-53) for u in draws[:100])


def test_uniform_mean_rough():
    rng = Rng(17)
    n = 20_000
    mean = sum(rng.uniform() for _ in range(n)) / n
    # std of the mean is ~1/sqrt(12 n) ~ 0.002; 5 sigma
    assert abs(mean - 0.5) < 0.01


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_below_in_range(n, seed):
    rng = Rng(seed)
    for _ in range(16):
        v = rng.below(n)
        assert 0 <= v < n


def test_below_rejects_nonpositive():
    rng = Rng(0)
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.below(-3)


def test_below_covers_small_range():
    rng = Rng(11)
    seen = {rng.below(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_gauss_matches_box_muller_transcript():
    # reference: pairs (r cos theta, r sin theta), cosine first
    rng = Rng(99)
    ref = _RefStream(99)
    got = [rng.gauss() for _ in range(10)]
    expected = []
    while len(expected) < 10:
        u1 = ((ref.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (ref.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        expected.append(r * math.cos(theta))
        expected.append(r * math.sin(theta))
    assert got == expected[:10]


def test_gauss_moments_rough():
    rng = Rng(5)
    n = 20_000
    xs = [rng.gauss() for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1


def test_gauss_spare_is_stream_position_function():
    # drawing 2k singles equals drawing one vector of 2k
    a = Rng(7)
    b = Rng(7)
    singles = [a.gauss() for _ in range(20)]
    vector = b.gauss_vector(20)
    assert vector.dtype == np.float64 and singles == vector.tolist()
