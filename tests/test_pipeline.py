"""Decode, inference, and the shift+matching composition."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryshift.core import ClipQueryTensor, FrameQuerySet, PixelEmbeddingMap
from queryshift.matching import ClipAlignment, align_clip
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
from queryshift.shift import BoundaryPolicy, feature_shift, plan_shift
from queryshift.synth import SceneSpec, class_head_for, generate_scene, load_scene, save_scene

ZERO = BoundaryPolicy.ZERO_FILL
HOLD = BoundaryPolicy.HOLD


def _shift(fraction, dim, boundary=ZERO):
    return plan_shift(Fraction(fraction), dim, boundary)


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
    queries = FrameQuerySet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    pixels = _frame_pixels(np.zeros((3, 4, 2)))
    scores, logits = decode_masks(queries, pixels, np.zeros((2, 5)))
    assert np.all(scores == 0.5)
    assert scores[:, pixels.index].shape == (2, 3, 4)
    assert logits.shape == (2, 5)


def test_decode_saturation():
    q = np.array([[2.0, 1.0]])  # norm^2 = 5
    pixels = _frame_pixels((4.0 * q).reshape(1, 1, 2))  # dot = 20
    scores, _ = decode_masks(FrameQuerySet(q), pixels, np.zeros((2, 1)))
    s = scores[:, pixels.index][0, 0, 0]
    assert s > 1.0 - 1e-6
    assert s < 1.0  # clamped inside the open interval


def test_decode_never_leaves_open_interval():
    q = np.array([[1e4], [-1e4]])
    pixels = _frame_pixels(np.array([[[1.0]], [[-1.0]]]))
    scores, _ = decode_masks(FrameQuerySet(q), pixels, np.zeros((1, 3)))
    assert np.all(scores > 0.0)
    assert np.all(scores < 1.0)


def test_decode_two_query_diagonal():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.6, 0.8, 0.0])
    queries = FrameQuerySet(np.stack([a, b]))
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
    _, logits = decode_masks(FrameQuerySet(q), _frame_pixels(np.zeros((2, 2, 6))), head)
    assert np.allclose(logits, q @ head, atol=1e-12)


def test_decode_dimension_mismatch():
    with pytest.raises(ValueError):
        decode_masks(
            FrameQuerySet(np.ones((2, 4))),
            _frame_pixels(np.zeros((1, 1, 5))),
            np.zeros((4, 2)),
        )
    with pytest.raises(ValueError):
        decode_masks(
            FrameQuerySet(np.ones((2, 4))),
            _frame_pixels(np.zeros((1, 1, 4))),
            np.zeros((5, 2)),
        )


def test_decode_masks_returns_read_only_arrays():
    queries = FrameQuerySet(np.array([[1.0, 0.0], [0.0, 1.0]]))
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


def _random_clip(t, n, d, seed=0):
    rng = np.random.default_rng(seed)
    return ClipQueryTensor(rng.standard_normal((t, n, d)))


def test_shift_fraction_zero_is_identity():
    clip = _random_clip(4, 3, 8, seed=1)
    for matching in (True, False):
        out = shift_with_matching(clip, _shift(0, 8), _aligned(clip, matching))
        assert np.array_equal(
            out.data.view(np.uint64), clip.data.view(np.uint64)
        )


def test_shift_identical_frames_matching_irrelevant():
    frame = np.random.default_rng(2).standard_normal((4, 8))
    clip = ClipQueryTensor(np.stack([frame] * 3))
    for boundary in (ZERO, HOLD):
        on = shift_with_matching(clip, _shift("1/2", 8, boundary), _aligned(clip, True))
        off = shift_with_matching(clip, _shift("1/2", 8, boundary), _aligned(clip, False))
        assert np.array_equal(on.data, off.data)


def test_shift_matching_off_equals_plain_shift():
    clip = _random_clip(5, 4, 12, seed=3)
    for boundary in (ZERO, HOLD):
        shift = _shift("1/4", 12, boundary)
        out = shift_with_matching(clip, shift, _aligned(clip, False))
        plain = feature_shift(clip, shift)
        assert np.array_equal(
            out.data.view(np.uint64), plain.data.view(np.uint64)
        )


def test_shift_rejects_alignment_of_another_shape():
    clip = _random_clip(3, 4, 8)
    for t_len, n in ((2, 4), (3, 5)):
        with pytest.raises(ValueError, match="does not match the clip"):
            shift_with_matching(clip, _shift("1/4", 8), ClipAlignment.identity(t_len, n))


def test_shift_restores_original_order():
    # untouched middle channels prove position: they must sit at the same
    # query index before and after, whatever the alignment did internally
    clip = _random_clip(5, 6, 16, seed=4)
    shift = _shift("1/4", 16, HOLD)  # 2 channels each way
    out = shift_with_matching(clip, shift, _aligned(clip, True))
    z_in = clip.data
    z_out = out.data
    assert np.array_equal(z_out[:, :, 2:-2], z_in[:, :, 2:-2])


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
    shift = _shift("1/2", d, HOLD)
    df = shift.d_forward
    assert df == 1

    alignment = align_clip(clip)
    out_on = shift_with_matching(clip, shift, alignment)
    assert np.array_equal(out_on.data, clip.data)
    for t, pi in enumerate(pis):
        assert np.array_equal(alignment.per_frame[t], np.argsort(pi))

    out_off = shift_with_matching(clip, shift, _aligned(clip, False))
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


def test_run_clip_fraction_zero_matches_frame_independent():
    scene = _scene()
    preds = run_clip(scene, _shift(0, 64, HOLD), align_clip(scene.queries))
    head = class_head_for(scene)
    for t, pred in enumerate(preds):
        solo = semantic_inference(*decode_masks(scene.queries.frames[t], scene.pixels[t], head))
        assert np.array_equal(pred, solo)


def test_row_labels_are_read_only_votes_per_palette_row():
    # run_clip returns one read-only intp class per palette row of each frame
    scene = _scene(n_tracks=3, n_queries=5, num_classes=4, noise_sigma=0.3)
    shift = _shift("1/4", 64, HOLD)
    alignment = align_clip(scene.queries)
    head = class_head_for(scene)
    shifted = shift_with_matching(scene.queries, shift, alignment)
    reversed_head = head[:, ::-1]  # a caller's head replaces the scene's
    for own, rows in ((head, run_clip(scene, shift, alignment)),
                      (reversed_head, run_clip(scene, shift, alignment, reversed_head))):
        assert len(rows) == scene.spec.t_len
        for r, queries, pixels in zip(rows, shifted.frames, scene.pixels):
            assert r.dtype == np.intp and r.shape == (pixels.palette.shape[0],)
            assert not r.flags.writeable
            assert np.array_equal(r, semantic_inference(*decode_masks(queries, pixels, own)))


def test_run_clip_identity_permutations_matching_irrelevant():
    scene = _scene(permute_per_frame=False)
    for boundary in (ZERO, HOLD):
        on = run_clip(scene, _shift("1/4", 64, boundary), _aligned(scene.queries, True))
        off = run_clip(scene, _shift("1/4", 64, boundary), _aligned(scene.queries, False))
        for a, b in zip(on, off):
            assert np.array_equal(a, b)


def test_run_clip_matched_is_exact_unmatched_is_not():
    scene = _scene(seed=3)
    alignment = align_clip(scene.queries)
    preds_on = run_clip(scene, _shift("1/4", 64, HOLD), alignment)
    for pred, pixels, gt in zip(preds_on, scene.pixels, scene.gt_labels):
        assert np.array_equal(pred[pixels.index], gt)
    from queryshift.synth import recovery_rate

    assert recovery_rate(alignment, scene) == 1.0

    preds_off = run_clip(scene, _shift("1/4", 64, HOLD), _aligned(scene.queries, False))
    wrong = sum(
        int((pred[pixels.index] != gt).sum())
        for pred, pixels, gt in zip(preds_off, scene.pixels, scene.gt_labels)
    )
    assert wrong > 0


# ---------------------------------------------------------------------------
# palette decode against the per-pixel decode
# ---------------------------------------------------------------------------


def _per_pixel_decode(queries, pixels, head):
    """The per-pixel reference: every query dotted with every pixel's embedding."""
    raw = np.einsum("nd,hwd->nhw", queries.data, pixels.palette[pixels.index])
    scores = np.clip(_sigmoid(raw), _SCORE_FLOOR, _SCORE_CEIL)
    probs = _softmax_rows(np.einsum("nd,dc->nc", queries.data, head))
    votes = np.einsum("nc,nhw->chw", probs, scores)
    return scores, np.argmax(votes, axis=0)


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
    return spec, plan_shift(fraction, spec.dim, boundary), draw(st.booleans())


@given(_palette_cases())
@settings(max_examples=80, deadline=None)
def test_palette_decode_is_bit_identical_to_per_pixel(case):
    spec, shift, matching = case
    scene = generate_scene(spec)
    head = class_head_for(scene)
    alignment = _aligned(scene.queries, matching)
    shifted = shift_with_matching(scene.queries, shift, alignment)
    rows = run_clip(scene, shift, alignment)
    assert scene.pixels[0].palette.shape == (spec.n_tracks + 1, spec.dim)
    for queries, pixels, r in zip(shifted.frames, scene.pixels, rows):
        scores, _ = decode_masks(queries, pixels, head)
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
    h, w = scene.spec.grid
    assert loaded.pixels[0].palette.shape == (h * w, scene.spec.dim)
    for fraction in ("0", "1/4"):
        shift = _shift(fraction, scene.spec.dim, HOLD)
        for matching in (True, False):
            alignment = _aligned(scene.queries, matching)
            ours = run_clip(scene, shift, alignment)
            theirs = run_clip(loaded, shift, alignment)
            for a, p, b, q in zip(ours, scene.pixels, theirs, loaded.pixels):
                assert np.array_equal(a[p.index], b[q.index])
