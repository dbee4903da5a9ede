"""Decode, inference, and the shift+matching composition."""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    evaluate_one,
    identity_palette_scene,
    masked_sigmoid,
    per_frame_run_clip,
    per_frame_tally_clip,
    shift_one,
)
from queryshift import cli, pipeline
from queryshift.core import (
    ClipQueryTensor,
    PixelEmbeddingMap,
    read_tensor,
    write_tensor,
)
from queryshift.matching import ClipAlignment, align_clip
from queryshift.metrics import evaluate_clip
from queryshift.pipeline import (
    _SCORE_CEIL,
    _SCORE_FLOOR,
    _sigmoid,
    _softmax_rows,
    decode_masks,
    run_clip,
    semantic_inference,
    shift_with_matching,
)
from queryshift.shift import ShiftConfig, feature_shift
from queryshift.synth import SceneSpec, class_head_for, generate_scene, load_scene, save_scene

ZERO = "zero"
HOLD = "hold"


def _shift(fraction, boundary=ZERO):
    return ShiftConfig(Fraction(fraction), boundary)


def _aligned(clip, matching):
    return align_clip(clip) if matching else ClipAlignment.identity(clip.t_len, clip.n_queries)


def _frame_pixels(data):
    """The pixel map of an (H, W, D) grid with one palette row per pixel."""
    h, w, d = np.shape(data)
    return PixelEmbeddingMap(np.reshape(data, (h * w, d)), np.arange(h * w).reshape(h, w))


# ---------------------------------------------------------------------------
# decode_masks
# ---------------------------------------------------------------------------


def test_decode_orthogonal_gives_half():
    queries = ClipQueryTensor(np.eye(2)[None])
    pixels = _frame_pixels(np.zeros((3, 4, 2)))
    scores, logits = decode_masks(queries, pixels, np.zeros((2, 5)))
    assert np.all(scores == 0.5)
    assert scores[:, pixels.index].shape == (2, 3, 4)
    assert logits.shape == (2, 5)


def test_decode_saturation():
    q = np.array([[2.0, 1.0]])  # norm^2 = 5
    pixels = _frame_pixels((4.0 * q).reshape(1, 1, 2))  # dot = 20
    scores, _ = decode_masks(ClipQueryTensor(q[None]), pixels, np.zeros((2, 1)))
    s = scores[:, pixels.index][0, 0, 0]
    assert s > 1.0 - 1e-6
    assert s < 1.0  # clamped inside the open interval


def test_decode_never_leaves_open_interval():
    q = np.array([[1e4], [-1e4]])
    pixels = _frame_pixels(np.array([[[1.0]], [[-1.0]]]))
    scores, _ = decode_masks(ClipQueryTensor(q[None]), pixels, np.zeros((1, 3)))
    assert np.all(scores > 0.0)
    assert np.all(scores < 1.0)


def test_decode_two_query_diagonal():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.6, 0.8, 0.0])
    queries = ClipQueryTensor(np.stack([a, b])[None])
    pixels = _frame_pixels(np.stack([a, b]).reshape(2, 1, 3))
    scores, _ = decode_masks(queries, pixels, np.zeros((3, 2)))
    scores = scores[:, pixels.index]
    sig1 = 1.0 / (1.0 + math.exp(-1.0))
    assert scores[0, 0, 0] == pytest.approx(sig1, abs=1e-12)
    assert scores[1, 1, 0] == pytest.approx(sig1, abs=1e-12)
    assert sig1 == pytest.approx(0.7311, abs=5e-5)
    cross = 1.0 / (1.0 + math.exp(-float(a @ b)))
    assert scores[0, 1, 0] == pytest.approx(cross, abs=1e-12)
    assert scores[1, 0, 0] == pytest.approx(cross, abs=1e-12)


def test_decode_matrix_head_is_linear_map():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((4, 6))
    head = rng.standard_normal((6, 3))
    _, logits = decode_masks(ClipQueryTensor(q[None]), _frame_pixels(np.zeros((2, 2, 6))), head)
    assert np.allclose(logits, q @ head, atol=1e-12)


def test_decode_dimension_mismatch():
    with pytest.raises(ValueError):
        decode_masks(
            ClipQueryTensor(np.ones((1, 2, 4))),
            _frame_pixels(np.zeros((1, 1, 5))),
            np.zeros((4, 2)),
        )
    with pytest.raises(ValueError):
        decode_masks(
            ClipQueryTensor(np.ones((1, 2, 4))),
            _frame_pixels(np.zeros((1, 1, 4))),
            np.zeros((5, 2)),
        )


def test_decode_masks_stacks_a_clips_frames_in_order():
    rng = np.random.default_rng(0)
    clip = ClipQueryTensor(rng.standard_normal((3, 4, 6)))
    pixels, head = _frame_pixels(rng.standard_normal((2, 5, 6))), rng.standard_normal((6, 3))
    scores, logits = decode_masks(clip, pixels, head)
    assert (scores.shape, logits.shape) == ((3 * 4, 10), (3 * 4, 3))
    for t in range(3):  # rows t*N .. t*N + N - 1 are frame t's queries, decoded alone
        one = decode_masks(ClipQueryTensor(clip.data[t : t + 1]), pixels, head)
        assert scores[4 * t : 4 * t + 4].tobytes() == one[0].tobytes()
        assert logits[4 * t : 4 * t + 4].tobytes() == one[1].tobytes()


def test_decode_masks_returns_read_only_arrays():
    queries = ClipQueryTensor(np.eye(2)[None])
    scores, logits = decode_masks(queries, _frame_pixels(np.ones((2, 3, 2))), np.ones((2, 4)))
    assert (scores.shape, logits.shape) == ((2, 6), (2, 4))
    for arr in (scores, logits):
        assert arr.dtype == np.float64
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0


# ---------------------------------------------------------------------------
# soft mask set: the (scores, logits) pair semantic_inference votes over
# ---------------------------------------------------------------------------


def _vote(scores, logits):
    """The (H, W) labels of an (N, H, W) score stack, one palette row per pixel."""
    n, h, w = np.shape(scores)
    return semantic_inference(np.reshape(scores, (n, h * w)), logits).reshape(h, w)


def test_soft_mask_set_validation():
    half = np.full((1, 2), 0.5)
    # not 2-D
    with pytest.raises(ValueError, match=r"scores must be \(N, P\)"):
        semantic_inference(np.full((1, 1, 2), 0.5), np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"scores must be \(N, P\)"):
        semantic_inference(np.full(2, 0.5), np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"logits must be \(N, C\)"):
        semantic_inference(half, np.zeros(2))
    with pytest.raises(ValueError, match=r"logits must be \(N, C\)"):
        semantic_inference(half, np.zeros((1, 2, 1)))
    # N differs between scores and logits
    with pytest.raises(ValueError, match=r"logits must be \(N, C\) matching scores"):
        semantic_inference(half, np.zeros((2, 2)))
    # non-finite scores or logits
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            semantic_inference(np.array([[0.5, bad]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            semantic_inference(half, np.array([[0.0, bad]]))
    # the vote does not need scores inside (0, 1); decode_masks guarantees that itself
    labels = semantic_inference(np.array([[0.0, 1.0]]), np.zeros((1, 2)))
    assert labels.tolist() == [0, 0]
    assert labels.dtype == np.intp and not labels.flags.writeable


@pytest.mark.parametrize(
    "index, match",
    [
        ([[0, 2]], r"lie in \[0, 2\)"),
        ([[-1, 0]], r"lie in \[0, 2\)"),
        ([[0.0, 1.0]], "2-D integer grid"),
        ([[False, True]], "2-D integer grid"),
        ([0, 1], "2-D integer grid"),
        ([[[0, 1]]], "2-D integer grid"),
        (np.zeros((0, 2), dtype=np.intp), "2-D integer grid"),
    ],
    ids=["too_high", "negative", "float", "bool", "one_dim", "three_dim", "empty"],
)
def test_soft_mask_set_rejects_bad_index(index, match):
    # the vote runs per palette row and trusts the index: the PixelEmbeddingMap
    # constructor checks it once, when the map is built
    with pytest.raises(ValueError, match=match):
        PixelEmbeddingMap(np.zeros((2, 1)), index)


# ---------------------------------------------------------------------------
# semantic_inference
# ---------------------------------------------------------------------------


def test_inference_single_query_single_class():
    assert np.all(_vote(np.full((1, 2, 3), 0.7), np.zeros((1, 1))) == 0)


def test_inference_disjoint_saturated_masks():
    hi, lo = 1.0 - 1e-9, 1e-9
    scores = np.empty((2, 2, 4))
    scores[0] = [[hi, hi, lo, lo], [hi, hi, lo, lo]]
    scores[1] = [[lo, lo, hi, hi], [lo, lo, hi, hi]]
    logits = np.array([[40.0, 0.0], [0.0, 40.0]])  # effectively one-hot
    assert np.array_equal(_vote(scores, logits), np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))


def test_inference_hand_computed_2x2():
    scores = np.array(
        [
            [[0.9, 0.2], [0.6, 0.4]],
            [[0.3, 0.8], [0.5, 0.7]],
        ]
    )
    logits = np.array([[2.0, 0.0], [0.0, 1.0]])
    # independent arithmetic for the expected map
    p0 = (math.exp(2.0) / (math.exp(2.0) + 1.0), 1.0 / (math.exp(2.0) + 1.0))
    p1 = (1.0 / (1.0 + math.exp(1.0)), math.exp(1.0) / (1.0 + math.exp(1.0)))
    expected = np.empty((2, 2), dtype=np.int64)
    for h in range(2):
        for w in range(2):
            votes = [
                p0[c] * scores[0, h, w] + p1[c] * scores[1, h, w] for c in (0, 1)
            ]
            expected[h, w] = 0 if votes[0] >= votes[1] else 1
    got = _vote(scores, logits)
    assert np.array_equal(got, expected)
    assert expected.tolist() == [[0, 1], [0, 1]]  # freeze the hand result


def test_inference_tie_breaks_to_lowest_class():
    assert np.all(_vote(np.full((1, 1, 2), 0.6), np.zeros((1, 3))) == 0)
    # two queries voting symmetrically for classes 1 and 2
    scores = np.full((2, 1, 1), 0.5)
    logits = np.array([[0.0, 5.0, 0.0], [0.0, 0.0, 5.0]])
    assert _vote(scores, logits)[0, 0] == 1


# ---------------------------------------------------------------------------
# shift_with_matching
# ---------------------------------------------------------------------------


def _shifted(clip, shift, alignment):
    """``shift_with_matching`` of one shift, as a clip."""
    return ClipQueryTensor(shift_with_matching(clip, [shift], alignment)[0])


def _random_clip(t, n, d, seed=0):
    rng = np.random.default_rng(seed)
    return ClipQueryTensor(rng.standard_normal((t, n, d)))


def test_shift_fraction_zero_is_identity():
    clip = _random_clip(4, 3, 8, seed=1)
    for matching in (True, False):
        out = _shifted(clip, _shift(0), _aligned(clip, matching))
        assert np.array_equal(
            out.data.view(np.uint64), clip.data.view(np.uint64)
        )


def test_shift_identical_frames_matching_irrelevant():
    frame = np.random.default_rng(2).standard_normal((4, 8))
    clip = ClipQueryTensor(np.stack([frame] * 3))
    for boundary in (ZERO, HOLD):
        on = _shifted(clip, _shift("1/2", boundary), _aligned(clip, True))
        off = _shifted(clip, _shift("1/2", boundary), _aligned(clip, False))
        assert np.array_equal(on.data, off.data)


def test_shift_matching_off_equals_plain_shift():
    clip = _random_clip(5, 4, 12, seed=3)
    for boundary in (ZERO, HOLD):
        shift = _shift("1/4", boundary)
        out = _shifted(clip, shift, _aligned(clip, False))
        plain = feature_shift(clip, shift, ClipAlignment.identity(5, 4))
        assert np.array_equal(
            out.data.view(np.uint64), plain.data.view(np.uint64)
        )


def test_shift_rejects_alignment_of_another_shape():
    clip = _random_clip(3, 4, 8)
    for t_len, n in ((2, 4), (3, 5)):
        with pytest.raises(ValueError, match="does not match the clip"):
            shift_with_matching(clip, [_shift("1/4")], ClipAlignment.identity(t_len, n))
        with pytest.raises(ValueError, match="does not match the clip"):
            feature_shift(clip, _shift(0), ClipAlignment.identity(t_len, n))  # a no-op shift too


def test_shift_restores_original_order():
    # untouched middle channels prove position: they must sit at the same
    # query index before and after, whatever the alignment did internally
    clip = _random_clip(5, 6, 16, seed=4)
    shift = _shift("1/4", HOLD)  # 2 channels each way
    out = _shifted(clip, shift, _aligned(clip, True))
    z_in = clip.data
    z_out = out.data
    assert np.array_equal(z_out[:, :, 2:-2], z_in[:, :, 2:-2])


@st.composite
def _shift_lists(draw):
    """A random clip, random adjacent matches of it and a list of shifts, repeats and 0 included."""
    t_len, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    d = draw(st.sampled_from([1, 2, 8, 16, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clip = ClipQueryTensor(rng.standard_normal((t_len, n, d)))
    adjacent = np.array([rng.permutation(n) for _ in range(t_len - 1)], np.intp).reshape(-1, n)
    alignment = ClipAlignment(adjacent, (0.0,) * (t_len - 1))
    fractions = st.sampled_from(["0", "1/8", "1/4", "3/8", "1/2"])
    plans = draw(st.lists(st.tuples(fractions, st.sampled_from([ZERO, HOLD])), max_size=8))
    shifts = [ShiftConfig(f, b) for f, b in plans]
    return clip, shifts, alignment


def _assert_shifts_equal_the_oracle(clip, shifts, alignment):
    got = shift_with_matching(clip, shifts, alignment)
    assert got.shape == (len(shifts),) + clip.data.shape and got.dtype == np.float64
    assert not got.flags.writeable
    for out, shift in zip(got, shifts):
        want = shift_one(clip, shift, alignment).tobytes()
        assert feature_shift(clip, shift, alignment).data.tobytes() == want
        assert out.tobytes() == want


@given(_shift_lists())
@settings(max_examples=150, deadline=None)
def test_shift_with_matching_equals_one_shift_at_a_time(case):
    _assert_shifts_equal_the_oracle(*case)


_EVERY_SHIFT = [ShiftConfig(f, b) for f in ("0", "1/8", "1/4", "1/2") for b in (ZERO, HOLD)]


@pytest.mark.parametrize("t_len, n, d", [(1, 5, 8), (4, 1, 8), (4, 5, 1)], ids=["T1", "N1", "D1"])
def test_matched_shift_equals_the_oracle_at_edge_sizes(t_len, n, d):
    rng = np.random.default_rng(t_len + 10 * n + 100 * d)
    clip = ClipQueryTensor(rng.standard_normal((t_len, n, d)))
    matched = align_clip(clip)
    assert matched.adjacent.shape == (t_len - 1, n)
    _assert_shifts_equal_the_oracle(clip, _EVERY_SHIFT, matched)
    _assert_shifts_equal_the_oracle(clip, _EVERY_SHIFT, ClipAlignment.identity(t_len, n))


def test_matched_shift_equals_the_oracle_at_paper_shape():
    # the paper's T6 N100 D256 queries at sigma 0.1; the grid does not reach the queries
    scene = generate_scene(SceneSpec(
        t_len=6, n_tracks=90, n_queries=100, dim=256, num_classes=20, grid=(16, 32),
        noise_sigma=0.1, permute_per_frame=True, motion=1, seed=0,
    ))
    alignment = align_clip(scene.queries)
    assert np.any(alignment.adjacent != np.arange(100))  # the matches really permute
    _assert_shifts_equal_the_oracle(scene.queries, _EVERY_SHIFT, alignment)


def test_shift_with_matching_leaves_the_clip_alone():
    clip = _random_clip(4, 5, 8, seed=6)
    before = clip.data.copy()
    shift_with_matching(clip, [_shift("1/2", HOLD), _shift("1/4")], _aligned(clip, True))
    assert clip.data.tobytes() == before.tobytes()


def _scatter_clip(protos, pis):
    frames = []
    for pi in pis:
        frame = np.empty_like(protos)
        frame[pi] = protos
        frames.append(frame)
    return ClipQueryTensor(np.stack(frames))


def test_shift_channel_provenance():
    # prototypes = identity rows, so channel values name their source track.
    # with matching, shifted channels carry the SAME track's values (which
    # are stationary here, so the clip is unchanged); without matching they
    # carry whichever track sat at that index in the neighbour frame.
    n = d = 6
    protos = np.eye(n)
    pis = [
        [0, 1, 2, 3, 4, 5],
        [1, 2, 3, 4, 5, 0],
        [3, 0, 1, 5, 2, 4],
    ]
    clip = _scatter_clip(protos, pis)
    shift = _shift("1/2", HOLD)
    df = shift.d_forward(d)
    assert df == 1

    alignment = align_clip(clip)
    out_on = _shifted(clip, shift, alignment)
    assert np.array_equal(out_on.data, clip.data)
    for t, pi in enumerate(pis):
        assert np.array_equal(alignment.per_frame[t], np.argsort(pi))

    out_off = _shifted(clip, shift, _aligned(clip, False))
    z = clip.data
    z_off = out_off.data
    for t in range(1, 3):
        for i in range(n):
            # forward block comes from the neighbour's occupant of index i
            assert np.array_equal(z_off[t, i, :df], z[t - 1, i, :df])
            src = pis[t - 1].index(i)
            assert np.array_equal(z_off[t, i, :df], protos[src][:df])
    # and it really differs from the matched result somewhere
    assert not np.array_equal(z_off, clip.data)


# ---------------------------------------------------------------------------
# run_clip
# ---------------------------------------------------------------------------


def _scene(fraction="1/4", **kw):
    base = dict(
        t_len=4,
        n_tracks=8,
        n_queries=8,
        dim=64,
        num_classes=9,
        grid=(32, 32),
        noise_sigma=0.0,
        permute_per_frame=True,
        motion=2,
        seed=0,
    )
    base.update(kw)
    return generate_scene(SceneSpec(**base))


def _run_one(scene, shift, alignment):
    """``run_clip`` of one shift under one alignment, split into each frame's palette rows."""
    _, classes = run_clip(scene, [shift], [alignment])
    return np.split(classes[0, 0], np.cumsum([len(p.palette) for p in scene.pixels])[:-1])


def test_run_clip_fraction_zero_matches_frame_independent():
    scene = _scene()
    preds = _run_one(scene, _shift(0, HOLD), align_clip(scene.queries))
    head = class_head_for(scene)
    for t, pred in enumerate(preds):
        queries = ClipQueryTensor(scene.queries.data[t : t + 1])
        solo = semantic_inference(*decode_masks(queries, scene.pixels[t], head))
        assert np.array_equal(pred, solo)


def test_row_labels_are_read_only_votes_per_palette_row():
    # run_clip returns read-only intp clip rows and one class per palette row of each frame
    scene = _scene(n_tracks=3, n_queries=5, num_classes=4, noise_sigma=0.3)
    shift = _shift("1/4", HOLD)
    alignment = align_clip(scene.queries)
    head = class_head_for(scene)
    shifted = _shifted(scene.queries, shift, alignment)
    rows, classes = run_clip(scene, [shift], [alignment])
    k = scene.spec.n_tracks + 1  # the frames share one (K + 1)-row palette
    assert rows.shape == (4, 32, 32) and classes.shape == (1, 1, 4 * k)
    for arr in (rows, classes):
        assert arr.dtype == np.intp and not arr.flags.writeable
    for t, pixels in enumerate(scene.pixels):
        assert np.array_equal(rows[t], pixels.index + t * k)
        frame = ClipQueryTensor(shifted.data[t : t + 1])
        votes = semantic_inference(*decode_masks(frame, pixels, head))
        assert np.array_equal(classes[0, 0, t * k : (t + 1) * k], votes)


def test_run_clip_identity_permutations_matching_irrelevant():
    scene = _scene(permute_per_frame=False)
    for boundary in (ZERO, HOLD):
        on = _run_one(scene, _shift("1/4", boundary), _aligned(scene.queries, True))
        off = _run_one(scene, _shift("1/4", boundary), _aligned(scene.queries, False))
        for a, b in zip(on, off):
            assert np.array_equal(a, b)


def test_run_clip_matched_is_exact_unmatched_is_not():
    scene = _scene(seed=3)
    alignment = align_clip(scene.queries)
    preds_on = _run_one(scene, _shift("1/4", HOLD), alignment)
    for pred, pixels, gt in zip(preds_on, scene.pixels, scene.gt_labels):
        assert np.array_equal(pred[pixels.index], gt)
    from queryshift.synth import recovery_rate

    assert recovery_rate(alignment, scene) == 1.0

    preds_off = _run_one(scene, _shift("1/4", HOLD), _aligned(scene.queries, False))
    wrong = sum(
        int((pred[pixels.index] != gt).sum())
        for pred, pixels, gt in zip(preds_off, scene.pixels, scene.gt_labels)
    )
    assert wrong > 0


# ---------------------------------------------------------------------------
# palette decode against the per-pixel decode
# ---------------------------------------------------------------------------


def _per_pixel_decode(queries, pixels, head):
    """The per-pixel reference: every (N, D) query dotted with every pixel's embedding."""
    raw = np.einsum("nd,hwd->nhw", queries, pixels.palette[pixels.index])
    scores = np.clip(_sigmoid(raw), _SCORE_FLOOR, _SCORE_CEIL)
    probs = _softmax_rows(np.einsum("nd,dc->nc", queries, head))
    votes = np.einsum("nc,nhw->chw", probs, scores)
    return scores, np.argmax(votes, axis=0)


# signed zeros, infinities, subnormals, the edges of exp's range and NaN
_SIGMOID_EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308],
    np.linspace(744.0, 746.0, 41), -np.linspace(744.0, 746.0, 41), [709.8, -709.8, 710.0, -710.0],
])


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 10.0, 100.0, 800.0]))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_sigmoid_equals_the_masked_oracle(seed, scale):
    x = np.concatenate([np.random.default_rng(seed).standard_normal(2000) * scale, _SIGMOID_EDGES])
    got, want = _sigmoid(x), masked_sigmoid(x)
    assert np.array_equal(got, want, equal_nan=True)  # NaN gives NaN, of either sign
    known = ~np.isnan(x)
    assert np.array_equal(np.signbit(got[known]), np.signbit(want[known]))


@st.composite
def _palette_cases(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, k + 3))
    spec = SceneSpec(
        t_len=draw(st.integers(1, 4)),
        n_tracks=k,
        n_queries=n,
        dim=draw(st.sampled_from(sorted({n, n + 5, 16, 64, 130}))),
        num_classes=draw(st.integers(1, k + 1)),
        grid=(draw(st.integers(1, 24)), draw(st.integers(1, 24))),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        permute_per_frame=draw(st.booleans()),
        motion=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32)),
    )
    fraction = draw(st.sampled_from(["0", "1/8", "1/4", "1/2"]))
    boundary = draw(st.sampled_from([ZERO, HOLD]))
    return spec, ShiftConfig(fraction, boundary), draw(st.booleans())


@given(_palette_cases())
@settings(max_examples=80, deadline=None)
def test_palette_decode_is_bit_identical_to_per_pixel(case):
    spec, shift, matching = case
    scene = generate_scene(spec)
    head = class_head_for(scene)
    alignment = _aligned(scene.queries, matching)
    shifted = _shifted(scene.queries, shift, alignment)
    rows = _run_one(scene, shift, alignment)
    assert scene.pixels[0].palette.shape == (spec.n_tracks + 1, spec.dim)
    for queries, pixels, r in zip(shifted.data, scene.pixels, rows):
        scores, _ = decode_masks(ClipQueryTensor(queries[None]), pixels, head)
        ref_scores, ref_labels = _per_pixel_decode(queries, pixels, head)
        assert scores[:, pixels.index].tobytes() == ref_scores.tobytes()
        assert np.array_equal(r[pixels.index], ref_labels)


@pytest.mark.parametrize(
    "kw",
    [
        dict(),
        dict(n_tracks=3, n_queries=6, num_classes=3, grid=(20, 9), noise_sigma=0.3),
        dict(n_tracks=1, n_queries=2, dim=16, num_classes=2, grid=(7, 30), noise_sigma=0.1),
    ],
    ids=["criterion", "surplus_noisy", "one_track"],
)
def test_loaded_scene_labels_equal_generated(tmp_path, kw):
    scene = _scene(**kw)
    save_scene(scene, tmp_path)
    loaded = load_scene(tmp_path)
    assert loaded.pixels[0].palette.shape == (scene.spec.n_tracks + 1, scene.spec.dim)
    for fraction in ("0", "1/4"):
        shift = _shift(fraction, HOLD)
        for matching in (True, False):
            alignment = _aligned(scene.queries, matching)
            ours = _run_one(scene, shift, alignment)
            theirs = _run_one(loaded, shift, alignment)
            for a, p, b, q in zip(ours, scene.pixels, theirs, loaded.pixels):
                assert np.array_equal(a[p.index], b[q.index])


# ---------------------------------------------------------------------------
# a loaded scene's recovered palette against one palette row per pixel
# ---------------------------------------------------------------------------

_LOADED_SPECS = {
    "sigma0": dict(t_len=4, n_tracks=4, n_queries=4, dim=16, num_classes=5, grid=(8, 8)),
    "noisy_surplus": dict(
        t_len=3, n_tracks=3, n_queries=6, dim=32, num_classes=4, grid=(20, 9), noise_sigma=0.3
    ),
    "low_dim": dict(  # too few channels for the signature layout
        t_len=3, n_tracks=2, n_queries=3, dim=3, num_classes=3, grid=(6, 7), noise_sigma=0.1
    ),
    "one_frame": dict(t_len=1, n_tracks=3, n_queries=3, dim=16, num_classes=4, grid=(5, 5)),
}


def _edit_pixels(scene_dir, edit):
    """Rewrite pixels.qtn with ``edit(rows, meta)`` applied to its (T, H*W, D) rows."""
    path = scene_dir / "pixels.qtn"
    rows = read_tensor(path).data.copy()
    edit(rows, json.loads((scene_dir / "tracks.json").read_text()))
    write_tensor(ClipQueryTensor(rows), path)


def _off_palette(scene_dir):
    def edit(rows, meta):
        rows[1, 5, 0] += 0.5

    _edit_pixels(scene_dir, edit)
    return {1}


def _other_row(scene_dir):
    def edit(rows, meta):
        rows[1, 5] = meta["prototypes"][0] if not rows[1, 5].any() else 0.0

    _edit_pixels(scene_dir, edit)
    return {1}  # a palette row, but not the one the spec's index gives


_EDITS = {
    "intact": lambda scene_dir: set(),
    "off_palette": _off_palette,
    "other_row": _other_row,
}


@pytest.mark.parametrize(
    "spec, edit",
    [(spec, "intact") for spec in _LOADED_SPECS]
    + [(spec, edit) for spec in ("sigma0", "noisy_surplus") for edit in list(_EDITS)[1:]],
)
def test_recovered_palette_equals_identity_palette(tmp_path, monkeypatch, capsys, spec, edit):
    scene = generate_scene(SceneSpec(**_LOADED_SPECS[spec]))
    save_scene(scene, tmp_path / "scene")
    fallback = _EDITS[edit](tmp_path / "scene")
    loaded = load_scene(tmp_path / "scene")
    oracle = identity_palette_scene(tmp_path / "scene")

    # frames the palette gives back exactly share it; the rest keep their own rows
    (h, w), k = scene.spec.grid, scene.spec.n_tracks
    recovered = [p.palette for t, p in enumerate(loaded.pixels) if t not in fallback]
    assert all(palette is recovered[0] for palette in recovered)
    for t, pixels in enumerate(loaded.pixels):
        assert len(pixels.palette) == (h * w if t in fallback else k + 1)
        if edit == "intact":
            assert np.array_equal(pixels.index, scene.pixels[t].index)

    shifts = [_shift(fraction, HOLD) for fraction in ("0", "1/4")]
    alignments = [_aligned(scene.queries, matching) for matching in (True, False)]
    (ours, a), (theirs, b) = (run_clip(s, shifts, alignments) for s in (loaded, oracle))
    assert np.array_equal(a[..., ours], b[..., theirs])  # (S, A, T, H, W) per-pixel classes
    c = scene.spec.num_classes
    assert evaluate_clip(loaded.gt_labels, ours, c, a.reshape(4, -1)) == (
        evaluate_clip(oracle.gt_labels, theirs, c, b.reshape(4, -1))
    )

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fraction": "1/4", "matching": True}))
    reports = []
    for load in (load_scene, identity_palette_scene):
        monkeypatch.setattr(cli, "load_scene", load)
        out = tmp_path / f"{load.__name__}.json"
        argv = ["run", "--scene", str(tmp_path / "scene"), "--config", str(cfg), "--out", str(out)]
        assert cli.main(argv + ["--boundary", "hold"]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# stacked run_clip against the per-frame, per-cell oracle
# ---------------------------------------------------------------------------


def _regroup_palettes(scene, groups):
    """``scene`` with frame t decoding over palette object ``groups[t]``.

    Group 0 keeps the scene's own palette; group g > 0 is one new object with
    the rows rolled by g, which each of its frames' index follows, so the
    per-pixel embeddings stay the same.
    """
    palettes = {0: scene.pixels[0].palette}
    for g in groups:
        palettes.setdefault(g, PixelEmbeddingMap(np.roll(palettes[0], g, axis=0), [[0]]).palette)
    pixels = []
    for g, p in zip(groups, scene.pixels):
        index = (p.index + g) % len(palettes[g])
        index.setflags(write=False)
        # the constructor keeps the frozen palette, so group g shares one object
        pixels.append(PixelEmbeddingMap(palettes[g], index))
    return dataclasses.replace(scene, pixels=tuple(pixels))


@st.composite
def _stacked_cases(draw):
    k = draw(st.integers(1, 4) | st.integers(7, 8))  # up to 9 classes
    n = draw(st.integers(k, k + 2))  # surplus queries decode too
    spec = SceneSpec(
        t_len=draw(st.integers(1, 4)),
        n_tracks=k,
        n_queries=n,
        dim=draw(st.sampled_from([d for d in (8, 16, 40) if d >= n])),
        num_classes=draw(st.integers(1, k + 1)),
        grid=(draw(st.integers(1, 10)), draw(st.integers(1, 10))),
        noise_sigma=draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])),  # 0: rows score 1/2, votes tie
        permute_per_frame=draw(st.booleans()),
        motion=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**32)),
    )
    shifts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["0", "1/8", "1/4", "3/8", "1/2"]), st.sampled_from([ZERO, HOLD])
            ),
            min_size=1,
            max_size=7,
        )
    )
    matchings = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    layout = draw(st.sampled_from(["generated", "loaded", "partly_shared"]))
    groups = draw(st.lists(st.integers(0, 2), min_size=spec.t_len, max_size=spec.t_len))
    return spec, shifts, matchings, layout, groups, draw(st.booleans())


@given(_stacked_cases())
@settings(max_examples=120, deadline=None)
def test_stacked_run_clip_equals_per_frame_oracle(case):
    spec, shifts, matchings, layout, groups, shared = case
    scene = generate_scene(spec)
    if layout == "loaded":  # the recovered (K + 1)-row palette
        with tempfile.TemporaryDirectory() as tmp:
            save_scene(scene, tmp)
            scene = load_scene(tmp)
    elif layout == "partly_shared":
        scene = _regroup_palettes(scene, groups)
    # a repeated matching mode reuses one alignment object, or makes a new one
    modes = {m: _aligned(scene.queries, m) for m in (False, True)}
    alignments = [modes[m] if shared else _aligned(scene.queries, m) for m in matchings]
    shifts = [_shift(fraction, boundary) for fraction, boundary in shifts]
    rows, classes = run_clip(scene, shifts, alignments)
    want = per_frame_run_clip(scene, [(s, a) for s in shifts for a in alignments])
    sizes = [len(p.palette) for p in scene.pixels]
    assert rows.dtype == classes.dtype == np.intp
    assert not rows.flags.writeable and not classes.flags.writeable
    assert classes.shape == (len(shifts), len(alignments), sum(sizes))
    got = classes.reshape(len(want), -1)  # shift-major, as the oracle's cells are listed
    for got_rows, want_rows in zip(got, want):
        assert np.array_equal(got_rows, np.concatenate(want_rows))
    for t, (grid, pixels) in enumerate(zip(rows, scene.pixels)):
        assert np.array_equal(grid, pixels.index + sum(sizes[:t]))
    indexes = [p.index for p in scene.pixels]
    tally = per_frame_tally_clip(scene.gt_labels, indexes, spec.num_classes)
    assert evaluate_clip(scene.gt_labels, rows, spec.num_classes, got) == [
        evaluate_one(tally, cell) for cell in want
    ]


def test_run_clip_decodes_once_per_shared_palette(monkeypatch, tmp_path):
    calls = []
    decode = pipeline.decode_masks

    def counted(queries, pixels, head):
        calls.append(queries.n_queries)
        return decode(queries, pixels, head)

    monkeypatch.setattr(pipeline, "decode_masks", counted)
    scene = _scene(t_len=6, n_tracks=4, n_queries=4, dim=128, num_classes=5, noise_sigma=0.3)
    fractions = ["0", "1/128", "1/64", "1/32", "1/16", "1/8", "1/4"]
    shifts = [_shift(f, HOLD) for f in fractions]
    off, on = (_aligned(scene.queries, m) for m in (False, True))
    rows, classes = run_clip(scene, shifts, [off, on])
    assert calls == [14 * 6 * 4]  # one call over every cell's every frame
    assert rows.shape == (6, 32, 32) and classes.shape == (7, 2, 6 * 5)
    calls.clear()
    run_clip(_regroup_palettes(scene, [0, 1, 0, 2, 1, 0]), shifts[:3], [off])
    assert calls == [3 * 3 * 4, 3 * 2 * 4, 3 * 1 * 4]  # groups in order of first use
    save_scene(scene, tmp_path)
    calls.clear()
    run_clip(load_scene(tmp_path), shifts[:1], [off, on])
    assert calls == [2 * 6 * 4]  # a loaded scene's frames share its recovered palette
    for empty in (([], [off]), (shifts, [])):
        with pytest.raises(ValueError, match="non-empty"):
            run_clip(scene, *empty)  # no cell is no query to decode


def test_run_clip_decodes_a_view_of_its_stack(monkeypatch):
    seen = []
    decode = pipeline.decode_masks

    def spied(queries, pixels, head):
        seen.append(queries)
        return decode(queries, pixels, head)

    monkeypatch.setattr(pipeline, "decode_masks", spied)
    scene = _scene(t_len=3, n_tracks=4, n_queries=5, num_classes=5, noise_sigma=0.3)
    cells = ([_shift(f, HOLD) for f in ("0", "1/4")], [_aligned(scene.queries, True)])
    run_clip(scene, *cells)
    (queries,) = seen  # one palette, one decode
    assert queries.data.shape == (1, 2 * 3 * 5, 64)  # one frame of the whole group
    assert not queries.data.flags.owndata  # the frozen stack, neither copied nor rebuilt
    seen.clear()
    run_clip(_regroup_palettes(scene, [0, 1, 0]), *cells)  # frames 0 and 2 share a palette
    assert [q.data.shape for q in seen] == [(1, 2 * 2 * 5, 64), (1, 2 * 1 * 5, 64)]
    assert not any(q.data.flags.owndata for q in seen)  # each group a block of the stack


@given(
    st.integers(1, 6), st.integers(1, 9), st.integers(1, 40), st.integers(1, 6),
    st.integers(0, 2**32), st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_grouped_vote_equals_one_vote_per_group(g, n, p, c, seed, coarse):
    rng = np.random.default_rng(seed)
    scores = rng.random((g, n, p))
    logits = rng.normal(size=(g, n, c)) * 5.0
    if coarse:  # ties between classes and between rows
        scores, logits = np.round(scores * 2) / 2, np.round(logits)
    labels = semantic_inference(scores, logits)
    assert labels.shape == (g, p) and labels.dtype == np.intp and not labels.flags.writeable
    for i in range(g):
        one = semantic_inference(scores[i], logits[i])
        # the vote as it was written before groups: one (N, P) einsum
        probs = np.exp(logits[i] - logits[i].max(axis=1, keepdims=True))
        probs = probs / probs.sum(axis=1, keepdims=True)
        solo = np.argmax(np.einsum("nc,np->cp", probs, scores[i]), axis=0)
        assert np.array_equal(labels[i], one) and np.array_equal(one, solo)


def test_vote_refuses_an_empty_class_axis_by_name():
    clip = _random_clip(2, 3, 4, seed=11)
    pixels = _frame_pixels(np.random.default_rng(12).standard_normal((2, 2, 4)))
    scores, logits = decode_masks(clip, pixels, np.zeros((4, 0)))
    assert logits.shape == (6, 0)
    for s, c in ((scores, logits), (scores[None], logits[None])):
        with pytest.raises(ValueError, match=r"^logits must be \(N, C\) .*C >= 1, got"):
            semantic_inference(s, c)


def test_grouped_vote_validation():
    with pytest.raises(ValueError, match=r"logits must be \(N, C\) matching scores"):
        semantic_inference(np.full((2, 3, 4), 0.5), np.zeros((2, 2, 5)))
    with pytest.raises(ValueError, match=r"logits must be \(N, C\) matching scores"):
        semantic_inference(np.full((2, 3, 4), 0.5), np.zeros((3, 3, 5)))
    with pytest.raises(ValueError, match=r"scores must be \(N, P\)"):
        semantic_inference(np.full((1, 2, 3, 4), 0.5), np.zeros((1, 2, 3, 5)))
    with pytest.raises(ValueError, match="finite"):
        semantic_inference(np.full((2, 1, 2), np.nan), np.zeros((2, 1, 2)))


def test_run_clip_shifts_once_per_alignment(monkeypatch):
    calls = []
    shift = pipeline.shift_with_matching

    def counted(clip, shifts, alignment):
        calls.append((len(shifts), alignment))
        return shift(clip, shifts, alignment)

    monkeypatch.setattr(pipeline, "shift_with_matching", counted)
    scene = _scene(t_len=3, n_tracks=4, n_queries=5, num_classes=5, noise_sigma=0.3)
    off, on = (_aligned(scene.queries, m) for m in (False, True))
    shifts = [_shift(f, HOLD) for f in ["0", "1/64", "1/16", "1/4", "1/4"]]
    _, classes = run_clip(scene, shifts, [off, on])
    assert calls == [(5, off), (5, on)]
    assert classes.shape[:2] == (5, 2)
    calls.clear()
    _, twice = run_clip(scene, shifts, [on, on])  # by position: one object listed twice
    assert calls == [(5, on), (5, on)]
    assert np.array_equal(twice[:, 0], twice[:, 1]) and np.array_equal(twice[:, 1], classes[:, 1])
