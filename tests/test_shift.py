"""Shift planning and the temporal feature shift itself."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryshift.core import ClipQueryTensor
from queryshift.shift import ShiftConfig, feature_shift

ZERO = "zero"
HOLD = "hold"


def naive_shift(z, d_f, d_b, boundary):
    """Element-by-element transcription of the shift definition.

    Deliberately dumb: python loops over every (t, i, d) cell, no slicing,
    so it shares no code path with the implementation under test.
    """
    t_len, n, d = z.shape
    out = np.empty_like(z)
    for t in range(t_len):
        for i in range(n):
            for c in range(d):
                if c < d_f:  # forward block: take from the previous frame
                    if t >= 1:
                        out[t, i, c] = z[t - 1, i, c]
                    else:
                        out[t, i, c] = 0.0 if boundary == ZERO else z[t, i, c]
                elif c >= d - d_b:  # backward block: take from the next frame
                    if t < t_len - 1:
                        out[t, i, c] = z[t + 1, i, c]
                    else:
                        out[t, i, c] = 0.0 if boundary == ZERO else z[t, i, c]
                else:
                    out[t, i, c] = z[t, i, c]
    return out


def _clip(t, n, d, seed=0):
    rng = np.random.default_rng(seed)
    return ClipQueryTensor(rng.standard_normal((t, n, d)))


# ---------------------------------------------------------------------------
# planning: ShiftConfig reads a fraction as written
# ---------------------------------------------------------------------------


def test_plan_1_128_of_256():
    cfg = ShiftConfig(Fraction(1, 128))
    assert cfg.d_forward(256) == 1
    assert cfg.fraction == Fraction(1, 128)


def test_plan_1_4_of_256():
    cfg = ShiftConfig(Fraction(1, 4))
    assert cfg.d_forward(256) == 32


def test_plan_zero_fraction():
    cfg = ShiftConfig(0)
    assert cfg.d_forward(256) == 0


def test_plan_table_column_for_256():
    fractions = ["0", "1/128", "1/64", "1/32", "1/16", "1/8", "1/4"]
    channels = [2 * ShiftConfig(Fraction(f)).d_forward(256) for f in fractions]
    assert channels == [0, 2, 4, 8, 16, 32, 64]


def test_plan_odd_budget_rounds_down_to_even():
    # floor(5/256 * 256) = 5 -> 4 channels -> 2 each way
    cfg = ShiftConfig(Fraction(5, 256))
    assert cfg.d_forward(256) == 2
    # floor(1/64 * 64) = 1 -> no-op
    cfg = ShiftConfig(Fraction(1, 64))
    assert cfg.d_forward(64) == 0


def test_plan_small_dims_degenerate_to_noop():
    for frac in ("1/128", "1/64"):
        cfg = ShiftConfig(Fraction(frac))
        assert cfg.d_forward(64) == 0


def test_plan_accepts_string_and_int():
    assert ShiftConfig("1/8").d_forward(256) == 16
    assert ShiftConfig(0).d_forward(8) == 0


def test_plan_rejects_out_of_range_fraction():
    with pytest.raises(ValueError):
        ShiftConfig(Fraction(3, 4))
    with pytest.raises(ValueError):
        ShiftConfig(Fraction(-1, 128))
    with pytest.raises(ValueError, match="dim must be >= 1"):
        ShiftConfig(Fraction(1, 8)).d_forward(0)


def test_plan_reads_numbers_as_written():
    # a float is read by its decimal text, as the CLI reads a JSON number
    for value in (0.3, "3/10", Fraction(3, 10)):
        cfg = ShiftConfig(value)
        assert cfg.fraction == Fraction(3, 10)
        assert cfg.d_forward(20) == 3


def test_plan_rejects_unparsable_fraction():
    for value in ("1/0", None, [1]):
        with pytest.raises(ValueError, match="bad shift fraction"):
            ShiftConfig(value)


def test_config_derives_channel_counts():
    assert [f.name for f in dataclasses.fields(ShiftConfig)] == ["fraction", "boundary"]
    cfg = ShiftConfig(Fraction(1, 4), HOLD)
    assert cfg.d_forward(64) == 8
    assert ShiftConfig(Fraction(5, 256)).d_forward(256) == 2


@pytest.mark.parametrize("dim", [1, 8, 64, 128])
def test_one_config_shifts_each_clip_by_its_own_dim(dim):
    cfg = ShiftConfig("1/4", HOLD)
    clip = _clip(3, 2, dim, seed=dim)
    d = int(Fraction(1, 4) * dim) // 2
    assert cfg.d_forward(dim) == d
    got = feature_shift(clip, cfg).data
    want = naive_shift(clip.data, d, d, HOLD)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # exactly d channels move each way: only they differ from the input
    moved = np.flatnonzero(np.any(got != clip.data, axis=(0, 1)))
    assert moved.tolist() == [*range(d), *range(dim - d, dim)]


def test_config_reads_a_float_by_its_text():
    # 0.29 * 200 is 57.99999999999999 in floats; read as written it is 58
    cfg = ShiftConfig(0.29)
    assert cfg.fraction == Fraction(29, 100) and type(cfg.fraction) is Fraction
    assert cfg.d_forward(200) == 29


def test_config_reads_the_boundary_by_its_value():
    assert ShiftConfig("1/8", "hold") == ShiftConfig(0.125, HOLD)
    assert ShiftConfig("1/8", "hold").boundary == HOLD
    assert len({ShiftConfig("1/8", HOLD), ShiftConfig(0.125, HOLD), ShiftConfig("1/8")}) == 2
    clip = _clip(3, 2, 8, seed=4)
    by_value = feature_shift(clip, ShiftConfig(Fraction(1, 4), "zero"))
    by_default = feature_shift(clip, ShiftConfig(Fraction(1, 4)))
    assert by_value.data.tobytes() == by_default.data.tobytes()
    assert np.all(by_value.data[0, :, :1] == 0.0) and np.all(by_value.data[-1, :, -1:] == 0.0)
    with pytest.raises(ValueError, match="boundary must be 'zero' or 'hold', got 'Zero'"):
        ShiftConfig("1/8", "Zero")
    with pytest.raises(ValueError, match="boundary must be of type str"):
        ShiftConfig("1/8", np.str_("hold"))  # equal to "hold", but not a JSON string


@pytest.mark.parametrize("boundary", [1, True, b"zero", "Zero"])
def test_boundary_is_the_string_zero_or_hold(boundary):
    with pytest.raises(ValueError, match=r"^boundary must be 'zero' or 'hold', got "):
        ShiftConfig("1/8", boundary)


@given(
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=512),
    st.integers(min_value=1, max_value=512),
)
@settings(max_examples=200, deadline=None)
def test_plan_properties(fraction, dim):
    channels = 2 * ShiftConfig(fraction).d_forward(dim)
    assert channels % 2 == 0
    assert channels <= int(fraction * dim)
    assert int(fraction * dim) - channels <= 1
    assert channels <= dim


# ---------------------------------------------------------------------------
# feature_shift
# ---------------------------------------------------------------------------


def test_worked_example_zero_fill():
    # z_in[t,i,d] = 10(t+1) + (d+1) with one channel shifted each way
    t_len, d = 3, 4
    z = np.empty((t_len, 1, d))
    for t in range(t_len):
        for c in range(d):
            z[t, 0, c] = 10 * (t + 1) + (c + 1)
    cfg = ShiftConfig(Fraction(2, d), ZERO)
    out = feature_shift(ClipQueryTensor(z), cfg).data
    assert out[:, 0, 0].tolist() == [0.0, 11.0, 21.0]
    assert out[:, 0, 3].tolist() == [24.0, 34.0, 0.0]
    # middle channels unchanged
    assert np.array_equal(out[:, 0, 1:3], z[:, 0, 1:3])


def test_worked_example_hold():
    t_len, d = 3, 4
    z = np.empty((t_len, 1, d))
    for t in range(t_len):
        for c in range(d):
            z[t, 0, c] = 10 * (t + 1) + (c + 1)
    cfg = ShiftConfig(Fraction(2, d), HOLD)
    out = feature_shift(ClipQueryTensor(z), cfg).data
    assert out[:, 0, 0].tolist() == [11.0, 11.0, 21.0]
    assert out[:, 0, 3].tolist() == [24.0, 34.0, 34.0]


def test_single_frame_hold_is_identity():
    clip = _clip(1, 3, 8)
    cfg = ShiftConfig(Fraction(4, 8), HOLD)
    out = feature_shift(clip, cfg)
    assert np.array_equal(out.data, clip.data)


def test_single_frame_zero_fill_blanks_both_bands():
    clip = _clip(1, 3, 8)
    cfg = ShiftConfig(Fraction(4, 8), ZERO)
    out = feature_shift(clip, cfg).data
    assert np.all(out[0, :, :2] == 0.0)
    assert np.all(out[0, :, -2:] == 0.0)
    assert np.array_equal(out[0, :, 2:-2], clip.data[0, :, 2:-2])


def test_zero_fraction_is_identity_bit_exact():
    clip = _clip(4, 5, 16, seed=7)
    out = feature_shift(clip, ShiftConfig(0))
    assert np.array_equal(
        out.data.view(np.uint64), clip.data.view(np.uint64)
    )
    assert out is clip  # immutable, so nothing to copy


def test_input_not_mutated():
    clip = _clip(3, 2, 6, seed=9)
    before = clip.data.copy()
    feature_shift(clip, ShiftConfig(Fraction(2, 6), ZERO))
    assert np.array_equal(clip.data, before)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([ZERO, HOLD]),
)
@settings(max_examples=60, deadline=None)
def test_matches_naive_reference(t, n, d, seed, boundary):
    clip = _clip(t, n, d, seed)
    half = int(np.random.default_rng(seed + 1).integers(0, d // 4 + 1))
    cfg = ShiftConfig(Fraction(2 * half, d), boundary)
    assert cfg.d_forward(d) == half
    got = feature_shift(clip, cfg).data
    want = naive_shift(clip.data, half, half, boundary)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_untouched_band_bit_identical():
    clip = _clip(5, 4, 32, seed=3)
    cfg = ShiftConfig(Fraction(1, 8), ZERO)  # 2 channels each way
    out = feature_shift(clip, cfg).data
    z = clip.data
    assert np.array_equal(
        out[:, :, 2:-2].view(np.uint64), z[:, :, 2:-2].view(np.uint64)
    )


def test_hold_conserves_channel_multisets():
    clip = _clip(6, 3, 10, seed=5)
    cfg = ShiftConfig(Fraction(4, 10), HOLD)
    out = feature_shift(clip, cfg).data
    z = clip.data
    for i in range(3):
        for c in range(2, 8):
            assert sorted(out[:, i, c]) == sorted(z[:, i, c])
    # shifted channels: multiset differs only by the boundary duplicate
    for i in range(3):
        for c in (0, 1):
            # forward: frame 0 duplicated, last frame dropped
            assert sorted(out[:, i, c]) == sorted(z[:-1, i, c].tolist() + [z[0, i, c]])
        for c in (8, 9):
            assert sorted(out[:, i, c]) == sorted(z[1:, i, c].tolist() + [z[-1, i, c]])


def test_zero_fill_zero_count():
    t_len, n, d = 4, 3, 12
    rng = np.random.default_rng(8)
    # strictly positive input so injected zeros are identifiable
    z = rng.uniform(0.5, 1.5, size=(t_len, n, d))
    cfg = ShiftConfig(Fraction(6, d), ZERO)
    out = feature_shift(ClipQueryTensor(z), cfg).data
    assert int((out == 0.0).sum()) == n * 2 * cfg.d_forward(d)


def test_commutes_with_query_permutation():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((4, 6, 16))
    perm = rng.permutation(6)
    cfg = ShiftConfig(Fraction(1, 4), HOLD)
    shifted_then_permuted = feature_shift(ClipQueryTensor(z), cfg).data[
        :, perm, :
    ]
    permuted_then_shifted = feature_shift(
        ClipQueryTensor(z[:, perm, :]), cfg
    ).data
    assert np.array_equal(shifted_then_permuted, permuted_then_shifted)
