"""Decode, inference, and the shift+matching composition."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from queryshift.core import ClipQueryTensor, FrameQuerySet, PixelEmbeddingMap
from queryshift.matching import ClipAlignment, align_clip
from queryshift.pipeline import (
    SoftMaskSet,
    decode_masks,
    run_clip,
    semantic_inference,
    shift_with_matching,
)
from queryshift.shift import BoundaryPolicy, feature_shift, plan_shift
from queryshift.synth import SceneSpec, generate_scene

ZERO = BoundaryPolicy.ZERO_FILL
HOLD = BoundaryPolicy.HOLD


def _shift(fraction, dim, boundary=ZERO):
    return plan_shift(Fraction(fraction), dim, boundary)


def _aligned(clip, matching):
    return align_clip(clip) if matching else ClipAlignment.identity(clip.t_len, clip.n_queries)


# ---------------------------------------------------------------------------
# decode_masks
# ---------------------------------------------------------------------------


def test_decode_orthogonal_gives_half():
    queries = FrameQuerySet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    pixels = PixelEmbeddingMap(np.zeros((3, 4, 2)))
    masks = decode_masks(queries, pixels, np.zeros((2, 5)))
    assert np.all(masks.scores == 0.5)
    assert masks.scores.shape == (2, 3, 4)


def test_decode_saturation():
    q = np.array([[2.0, 1.0]])  # norm^2 = 5
    pixels = PixelEmbeddingMap((4.0 * q).reshape(1, 1, 2))  # dot = 20
    masks = decode_masks(FrameQuerySet(q), pixels, np.zeros((2, 1)))
    s = masks.scores[0, 0, 0]
    assert s > 1.0 - 1e-6
    assert s < 1.0  # clamped inside the open interval


def test_decode_never_leaves_open_interval():
    q = np.array([[1e4], [-1e4]])
    pixels = PixelEmbeddingMap(np.array([[[1.0]], [[-1.0]]]))
    masks = decode_masks(FrameQuerySet(q), pixels, np.zeros((1, 3)))
    assert np.all(masks.scores > 0.0)
    assert np.all(masks.scores < 1.0)


def test_decode_two_query_diagonal():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.6, 0.8, 0.0])
    queries = FrameQuerySet(np.stack([a, b]))
    pixels = PixelEmbeddingMap(np.stack([a, b]).reshape(2, 1, 3))
    masks = decode_masks(queries, pixels, np.zeros((3, 2)))
    sig1 = 1.0 / (1.0 + math.exp(-1.0))
    assert masks.scores[0, 0, 0] == pytest.approx(sig1, abs=1e-12)
    assert masks.scores[1, 1, 0] == pytest.approx(sig1, abs=1e-12)
    assert sig1 == pytest.approx(0.7311, abs=5e-5)
    cross = 1.0 / (1.0 + math.exp(-float(a @ b)))
    assert masks.scores[0, 1, 0] == pytest.approx(cross, abs=1e-12)
    assert masks.scores[1, 0, 0] == pytest.approx(cross, abs=1e-12)


def test_decode_matrix_head_is_linear_map():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((4, 6))
    head = rng.standard_normal((6, 3))
    masks = decode_masks(
        FrameQuerySet(q), PixelEmbeddingMap(np.zeros((2, 2, 6))), head
    )
    assert np.allclose(masks.class_logits, q @ head, atol=1e-12)


def test_decode_dimension_mismatch():
    with pytest.raises(ValueError):
        decode_masks(
            FrameQuerySet(np.ones((2, 4))),
            PixelEmbeddingMap(np.zeros((1, 1, 5))),
            np.zeros((4, 2)),
        )
    with pytest.raises(ValueError):
        decode_masks(
            FrameQuerySet(np.ones((2, 4))),
            PixelEmbeddingMap(np.zeros((1, 1, 4))),
            np.zeros((5, 2)),
        )


def test_soft_mask_set_validation():
    with pytest.raises(ValueError):
        SoftMaskSet(np.full((1, 1, 1), 1.0), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        SoftMaskSet(np.full((1, 1, 1), 0.0), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        SoftMaskSet(np.full((1, 1, 1), 0.5), np.full((1, 2), np.inf))


# ---------------------------------------------------------------------------
# semantic_inference
# ---------------------------------------------------------------------------


def test_inference_single_query_single_class():
    masks = SoftMaskSet(np.full((1, 2, 3), 0.7), np.zeros((1, 1)))
    labels = semantic_inference(masks)
    assert np.all(labels.labels == 0)
    assert labels.num_classes == 1


def test_inference_disjoint_saturated_masks():
    hi, lo = 1.0 - 1e-9, 1e-9
    scores = np.empty((2, 2, 4))
    scores[0] = [[hi, hi, lo, lo], [hi, hi, lo, lo]]
    scores[1] = [[lo, lo, hi, hi], [lo, lo, hi, hi]]
    logits = np.array([[40.0, 0.0], [0.0, 40.0]])  # effectively one-hot
    labels = semantic_inference(SoftMaskSet(scores, logits)).labels
    assert np.array_equal(labels, np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))


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
    got = semantic_inference(SoftMaskSet(scores, logits)).labels
    assert np.array_equal(got, expected)
    assert expected.tolist() == [[0, 1], [0, 1]]  # freeze the hand result


def test_inference_tie_breaks_to_lowest_class():
    masks = SoftMaskSet(np.full((1, 1, 2), 0.6), np.zeros((1, 3)))
    assert np.all(semantic_inference(masks).labels == 0)
    # two queries voting symmetrically for classes 1 and 2
    scores = np.full((2, 1, 1), 0.5)
    logits = np.array([[0.0, 5.0, 0.0], [0.0, 0.0, 5.0]])
    assert semantic_inference(SoftMaskSet(scores, logits)).labels[0, 0] == 1


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
    from queryshift.synth import class_head_for

    head = class_head_for(scene)
    for t, pred in enumerate(preds):
        masks = decode_masks(scene.queries.frames[t], scene.pixels[t], head)
        solo = semantic_inference(masks)
        assert np.array_equal(pred.labels, solo.labels)


def test_run_clip_identity_permutations_matching_irrelevant():
    scene = _scene(permute_per_frame=False)
    for boundary in (ZERO, HOLD):
        on = run_clip(scene, _shift("1/4", 64, boundary), _aligned(scene.queries, True))
        off = run_clip(scene, _shift("1/4", 64, boundary), _aligned(scene.queries, False))
        for a, b in zip(on, off):
            assert np.array_equal(a.labels, b.labels)


def test_run_clip_matched_is_exact_unmatched_is_not():
    scene = _scene(seed=3)
    alignment = align_clip(scene.queries)
    preds_on = run_clip(scene, _shift("1/4", 64, HOLD), alignment)
    for pred, gt in zip(preds_on, scene.gt_labels):
        assert np.array_equal(pred.labels, gt.labels)
    from queryshift.synth import recovery_rate

    assert recovery_rate(alignment, scene) == 1.0

    preds_off = run_clip(scene, _shift("1/4", 64, HOLD), _aligned(scene.queries, False))
    wrong = sum(
        int((pred.labels != gt.labels).sum())
        for pred, gt in zip(preds_off, scene.gt_labels)
    )
    assert wrong > 0
