"""Shift planning and the temporal feature shift itself."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryshift.core import ClipQueryTensor
from queryshift.shift import BoundaryPolicy, ShiftConfig, feature_shift, plan_shift

ZERO = BoundaryPolicy.ZERO_FILL
HOLD = BoundaryPolicy.HOLD


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
                        out[t, i, c] = 0.0 if boundary is ZERO else z[t, i, c]
                elif c >= d - d_b:  # backward block: take from the next frame
                    if t < t_len - 1:
                        out[t, i, c] = z[t + 1, i, c]
                    else:
                        out[t, i, c] = 0.0 if boundary is ZERO else z[t, i, c]
                else:
                    out[t, i, c] = z[t, i, c]
    return out


def _clip(t, n, d, seed=0):
    rng = np.random.default_rng(seed)
    return ClipQueryTensor(rng.standard_normal((t, n, d)))


# ---------------------------------------------------------------------------
# plan_shift
# ---------------------------------------------------------------------------


def test_plan_1_128_of_256():
    cfg = plan_shift(Fraction(1, 128), 256)
    assert cfg.d_forward == 1
    assert cfg.channels_shifted == 2
    assert cfg.fraction == Fraction(1, 128)


def test_plan_1_4_of_256():
    cfg = plan_shift(Fraction(1, 4), 256)
    assert cfg.d_forward == 32
    assert cfg.channels_shifted == 64


def test_plan_zero_fraction():
    cfg = plan_shift(0, 256)
    assert cfg.d_forward == 0


def test_plan_table_column_for_256():
    fractions = ["0", "1/128", "1/64", "1/32", "1/16", "1/8", "1/4"]
    channels = [plan_shift(Fraction(f), 256).channels_shifted for f in fractions]
    assert channels == [0, 2, 4, 8, 16, 32, 64]


def test_plan_odd_budget_rounds_down_to_even():
    # floor(5/256 * 256) = 5 -> 4 channels -> 2 each way
    cfg = plan_shift(Fraction(5, 256), 256)
    assert cfg.d_forward == 2
    # floor(1/64 * 64) = 1 -> no-op
    cfg = plan_shift(Fraction(1, 64), 64)
    assert cfg.d_forward == 0


def test_plan_small_dims_degenerate_to_noop():
    for frac in ("1/128", "1/64"):
        cfg = plan_shift(Fraction(frac), 64)
        assert cfg.channels_shifted == 0


def test_plan_accepts_string_and_int():
    assert plan_shift("1/8", 256).channels_shifted == 32
    assert plan_shift(0, 8).channels_shifted == 0


def test_plan_rejects_out_of_range_fraction():
    with pytest.raises(ValueError):
        plan_shift(Fraction(3, 4), 256)
    with pytest.raises(ValueError):
        plan_shift(Fraction(-1, 128), 256)
    with pytest.raises(ValueError):
        plan_shift(Fraction(1, 8), 0)


def test_plan_reads_numbers_as_written():
    # a float is read by its decimal text, as the CLI reads a JSON number
    for value in (0.3, "3/10", Fraction(3, 10)):
        cfg = plan_shift(value, 20)
        assert cfg.fraction == Fraction(3, 10)
        assert cfg.channels_shifted == 6


def test_plan_rejects_unparsable_fraction():
    for value in ("1/0", None, [1]):
        with pytest.raises(ValueError, match="bad shift fraction"):
            plan_shift(value, 20)


def test_config_derives_channel_counts():
    assert [f.name for f in dataclasses.fields(ShiftConfig)] == ["fraction", "dim", "boundary"]
    cfg = ShiftConfig(Fraction(1, 4), 64, HOLD)
    assert (cfg.d_forward, cfg.channels_shifted) == (8, 16)
    assert ShiftConfig(Fraction(5, 256), 256).channels_shifted == 4


@given(
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=512),
    st.integers(min_value=1, max_value=512),
)
@settings(max_examples=200, deadline=None)
def test_plan_properties(fraction, dim):
    cfg = plan_shift(fraction, dim)
    assert cfg.channels_shifted % 2 == 0
    assert cfg.channels_shifted <= int(fraction * dim)
    assert int(fraction * dim) - cfg.channels_shifted <= 1
    assert cfg.channels_shifted <= dim


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
    cfg = ShiftConfig(Fraction(2, d), d, ZERO)
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
    cfg = ShiftConfig(Fraction(2, d), d, HOLD)
    out = feature_shift(ClipQueryTensor(z), cfg).data
    assert out[:, 0, 0].tolist() == [11.0, 11.0, 21.0]
    assert out[:, 0, 3].tolist() == [24.0, 34.0, 34.0]


def test_single_frame_hold_is_identity():
    clip = _clip(1, 3, 8)
    cfg = ShiftConfig(Fraction(4, 8), 8, HOLD)
    out = feature_shift(clip, cfg)
    assert np.array_equal(out.data, clip.data)


def test_single_frame_zero_fill_blanks_both_bands():
    clip = _clip(1, 3, 8)
    cfg = ShiftConfig(Fraction(4, 8), 8, ZERO)
    out = feature_shift(clip, cfg).data
    assert np.all(out[0, :, :2] == 0.0)
    assert np.all(out[0, :, -2:] == 0.0)
    assert np.array_equal(out[0, :, 2:-2], clip.data[0, :, 2:-2])


def test_zero_fraction_is_identity_bit_exact():
    clip = _clip(4, 5, 16, seed=7)
    out = feature_shift(clip, plan_shift(0, 16))
    assert np.array_equal(
        out.data.view(np.uint64), clip.data.view(np.uint64)
    )
    assert out is clip  # immutable, so nothing to copy


def test_input_not_mutated():
    clip = _clip(3, 2, 6, seed=9)
    before = clip.data.copy()
    feature_shift(clip, ShiftConfig(Fraction(2, 6), 6, ZERO))
    assert np.array_equal(clip.data, before)


def test_dim_mismatch_rejected():
    clip = _clip(2, 2, 8)
    with pytest.raises(ValueError):
        feature_shift(clip, plan_shift(Fraction(1, 4), 16))


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
    cfg = ShiftConfig(Fraction(2 * half, d), d, boundary)
    assert cfg.d_forward == half
    got = feature_shift(clip, cfg).data
    want = naive_shift(clip.data, cfg.d_forward, cfg.d_forward, boundary)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_untouched_band_bit_identical():
    clip = _clip(5, 4, 32, seed=3)
    cfg = plan_shift(Fraction(1, 8), 32, ZERO)  # 2 channels each way
    out = feature_shift(clip, cfg).data
    z = clip.data
    assert np.array_equal(
        out[:, :, 2:-2].view(np.uint64), z[:, :, 2:-2].view(np.uint64)
    )


def test_hold_conserves_channel_multisets():
    clip = _clip(6, 3, 10, seed=5)
    cfg = ShiftConfig(Fraction(4, 10), 10, HOLD)
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
    cfg = ShiftConfig(Fraction(6, d), d, ZERO)
    out = feature_shift(ClipQueryTensor(z), cfg).data
    assert int((out == 0.0).sum()) == n * 2 * cfg.d_forward


def test_commutes_with_query_permutation():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((4, 6, 16))
    perm = rng.permutation(6)
    cfg = plan_shift(Fraction(1, 4), 16, HOLD)
    shifted_then_permuted = feature_shift(ClipQueryTensor(z), cfg).data[
        :, perm, :
    ]
    permuted_then_shifted = feature_shift(
        ClipQueryTensor(z[:, perm, :]), cfg
    ).data
    assert np.array_equal(shifted_then_permuted, permuted_then_shifted)
