"""Tests for the deterministic PRNG.

The generator is spelled out in rng.py's docstring precisely so that an
independent transcription of that text can serve as the oracle here.  The
reference below was written from the docstring alone, not from the module
code.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ScalarGauss
from queryshift.rng import _GAUSS_BLOCK as _BLOCK
from queryshift.rng import _STREAM_BLOCK as _WORDS
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
    got = [float(rng.gauss_vector(1)[0]) for _ in range(10)]  # one draw a call
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
    xs = rng.gauss_vector(n).tolist()
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1


def test_gauss_spare_is_stream_position_function():
    # drawing 2k singles equals drawing one vector of 2k
    a = Rng(7)
    b = Rng(7)
    singles = [float(a.gauss_vector(1)[0]) for _ in range(20)]
    vector = b.gauss_vector(20)
    assert vector.dtype == np.float64 and singles == vector.tolist()


# draw counts whose words end one short of, on and one past a table block, once
# and many times over, and whose Box-Muller pairs fill one block of pairs, odd and even
_EDGES = sorted(
    {m * _WORDS + k for m in (1, 2, 16) for k in (-2, -1, 0, 1, 2)}
    | {2 * _BLOCK + k for k in (-1, 0, 1, 2 * _BLOCK + 1)}
)

# the vector Box-Muller against the scalar one, over calls of every kind
_CALLS = st.one_of(
    st.tuples(st.just("vector"), st.integers(0, 40) | st.sampled_from(_EDGES)),
    st.tuples(st.just("vector"), st.just(1)),  # single draws often, to cross the cached sine
    st.tuples(st.just("next_u64"), st.just(0)),
    st.tuples(st.just("below"), st.integers(1, 1000)),
)


@given(st.integers(0, 2**64 - 1), st.lists(_CALLS, max_size=12))
@settings(max_examples=60, deadline=None)
def test_gauss_vector_equals_scalar_box_muller(seed, calls):
    rng = Rng(seed)
    oracle = ScalarGauss(Rng(seed))
    for kind, arg in calls:
        if kind == "vector":
            got = rng.gauss_vector(arg)
            want = np.array([oracle.gauss() for _ in range(arg)], dtype=np.float64)
            assert got.dtype == np.float64 and got.shape == (arg,)
            assert got.tobytes() == want.tobytes()
        elif kind == "next_u64":
            assert rng.next_u64() == oracle.rng.next_u64()
        else:
            assert rng.below(arg) == oracle.rng.below(arg)
    # same state afterwards: the cached sine, then the stream
    assert rng.gauss_vector(2).tolist() == [oracle.gauss(), oracle.gauss()]
    assert rng.next_u64() == oracle.rng.next_u64()


@pytest.mark.parametrize("lead", [0, 1, 2, 3], ids=["none", "word", "spare", "spare_and_word"])
@pytest.mark.parametrize("count", _EDGES)
def test_gauss_vector_at_block_edges_equals_scalar_box_muller(count, lead):
    # a leading word or cached sine moves where the call's words and pairs end;
    # an odd count ends on a sine that is kept past the block it was drawn in
    rng, oracle = Rng(count), ScalarGauss(Rng(count))
    if lead & 1:
        assert rng.next_u64() == oracle.rng.next_u64()
    if lead & 2:
        assert rng.gauss_vector(1)[0] == oracle.gauss()
    got = rng.gauss_vector(count)
    assert got.tobytes() == np.array([oracle.gauss() for _ in range(count)]).tobytes()
    assert rng.gauss_vector(2).tolist() == [oracle.gauss(), oracle.gauss()]
    assert (rng.next_u64(), rng.below(1000)) == (oracle.rng.next_u64(), oracle.rng.below(1000))


def test_gauss_vector_scratch_is_bounded():
    # blocks of pairs keep the scratch lists small next to the output; one list
    # of Python ints per draw would peak at several times the output.  The
    # unit-state table is built at import, so it is never inside this trace
    tracemalloc.start()
    try:
        out = Rng(3).gauss_vector(2 * 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * 2 * 10**5
    assert peak < 1.5 * out.nbytes


@pytest.mark.parametrize("n", [-1, 2**62, 2**63], ids=["negative", "too_big", "past_intp"])
def test_gauss_vector_names_a_count_no_array_can_hold(n):
    rng, twin = Rng(4), Rng(4)
    assert rng.gauss_vector(1)[0] == twin.gauss_vector(1)[0]  # leaves a cached sine
    with pytest.raises(ValueError, match=rf"\bn={n} draws: "):
        rng.gauss_vector(n)
    # refused before any draw: the cached sine and the stream are where they were
    assert rng.gauss_vector(3).tolist() == twin.gauss_vector(3).tolist()
