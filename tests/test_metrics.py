"""mIoU, pixel accuracy, and clip scoring over palette rows against per-pixel oracles."""

from __future__ import annotations

import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryshift.matching import ClipAlignment, align_clip
from queryshift.metrics import evaluate_clip, miou, pixel_accuracy, tally_clip
from queryshift.pipeline import run_clip
from queryshift.shift import BoundaryPolicy, plan_shift
from queryshift.synth import SceneSpec, generate_scene, load_scene, save_scene

from oracles import accumulate, temporal_consistency


def _lmap(values, c):
    """A read-only int64 grid of classes in [0, c)."""
    labels = np.array(values, dtype=np.int64)
    assert labels.min() >= 0 and labels.max() < c
    labels.setflags(write=False)
    return labels


def _zeros(c):
    return np.zeros((c, c), dtype=np.int64)


def _score_maps(gt, pred, c):
    """``evaluate_clip`` of per-pixel predictions: each map is its own index, row k is class k."""
    return evaluate_clip(tally_clip(np.array(gt), pred, c), [np.arange(c)] * len(pred))


# ---------------------------------------------------------------------------
# accumulate (the per-pixel confusion oracle)
# ---------------------------------------------------------------------------


def test_accumulate_perfect_four_pixels():
    gt = _lmap([[0, 0], [0, 0]], 2)
    counts = accumulate(_zeros(2), gt, gt)
    assert counts.tolist() == [[4, 0], [0, 0]]


def test_accumulate_two_pixel_example():
    gt = _lmap([[0], [1]], 2)
    pred = _lmap([[1], [1]], 2)
    counts = accumulate(_zeros(2), pred, gt)
    # rows = ground truth, cols = prediction
    assert counts.tolist() == [[0, 1], [0, 1]]
    assert counts.sum() == 2


def test_accumulate_returns_new_matrix():
    counts0 = _zeros(2)
    gt = _lmap([[0]], 2)
    for start in (counts0, counts0.astype(np.uint8), counts0.astype(np.int32)):
        counts1 = accumulate(start, gt, gt)
        assert counts1 is not start and counts1.dtype == np.int64
        assert start.sum() == 0
        assert counts1.tolist() == [[1, 0], [0, 0]]


def test_accumulate_additivity():
    rng = np.random.default_rng(0)
    a_gt = rng.integers(0, 3, size=(5, 7))
    a_pred = rng.integers(0, 3, size=(5, 7))
    b_gt = rng.integers(0, 3, size=(5, 7))
    b_pred = rng.integers(0, 3, size=(5, 7))
    two_steps = accumulate(
        accumulate(_zeros(3), _lmap(a_pred, 3), _lmap(a_gt, 3)),
        _lmap(b_pred, 3),
        _lmap(b_gt, 3),
    )
    concat = accumulate(
        _zeros(3),
        _lmap(np.vstack([a_pred, b_pred]), 3),
        _lmap(np.vstack([a_gt, b_gt]), 3),
    )
    assert np.array_equal(two_steps, concat)


def test_accumulate_order_independent_100_shuffles():
    rng = np.random.default_rng(1)
    frames = [
        (
            _lmap(rng.integers(0, 4, size=(6, 6)), 4),
            _lmap(rng.integers(0, 4, size=(6, 6)), 4),
        )
        for _ in range(12)
    ]

    def total_for(order):
        counts = _zeros(4)
        for idx in order:
            pred, gt = frames[idx]
            counts = accumulate(counts, pred, gt)
        return counts

    reference = total_for(range(12))
    shuffler = random.Random(7)
    order = list(range(12))
    for _ in range(100):
        shuffler.shuffle(order)
        assert np.array_equal(total_for(order), reference)


def test_accumulate_shape_and_class_mismatch():
    counts = _zeros(2)
    with pytest.raises(ValueError):
        accumulate(counts, _lmap([[0]], 2), _lmap([[0, 0]], 2))
    with pytest.raises(ValueError):
        accumulate(counts, _lmap([[2]], 3), _lmap([[0]], 3))  # class 2 of 3 in 2x2 counts


def test_confusion_matrix_validation():
    # each public reader of confusion counts checks the array it is given
    bad = [
        (np.zeros((2, 3), dtype=np.int64), "square"),
        (np.zeros((0, 0), dtype=np.int64), "square"),
        (np.zeros(4, dtype=np.int64), "square"),
        (np.array([[-1]], dtype=np.int64), "non-negative"),
        (np.array([[1, 0], [0, -3]], dtype=np.int64), "non-negative"),
        (np.zeros((2, 2)), "integers"),
        (np.ones((2, 2), dtype=bool), "integers"),
    ]
    frame = _lmap([[0]], 2)
    for counts, fragment in bad:
        with pytest.raises(ValueError, match=fragment):
            accumulate(counts, frame, frame)
        with pytest.raises(ValueError, match=fragment):
            miou(counts)
        with pytest.raises(ValueError, match=fragment):
            pixel_accuracy(counts)


# ---------------------------------------------------------------------------
# miou
# ---------------------------------------------------------------------------


def test_miou_perfect():
    assert miou(np.diag([5, 3, 2])) == pytest.approx(1.0, abs=1e-12)


def test_miou_half_half_example():
    # gt half class 0 half class 1, prediction all class 0:
    # IoU_0 = 2/4, IoU_1 = 0/2 -> mean 0.25
    gt = _lmap([[0, 0], [1, 1]], 2)
    pred = _lmap([[0, 0], [0, 0]], 2)
    counts = accumulate(_zeros(2), pred, gt)
    assert miou(counts) == pytest.approx(0.25, abs=1e-12)
    assert pixel_accuracy(counts) == pytest.approx(0.5, abs=1e-12)


def test_miou_excludes_absent_classes():
    # class 2 never appears in gt or pred: the mean runs over {0, 1} only
    gt = _lmap([[0, 1]], 3)
    pred = _lmap([[0, 0]], 3)
    counts = accumulate(_zeros(3), pred, gt)
    # IoU_0 = 1/2, IoU_1 = 0 -> 0.25; with class 2 wrongly included it
    # would be 1/6
    assert miou(counts) == pytest.approx(0.25, abs=1e-12)


def test_miou_empty_matrix_rejected():
    with pytest.raises(ValueError):
        miou(_zeros(3))


def test_miou_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert 0.0 <= miou(rng.integers(0, 50, size=(4, 4))) <= 1.0


# ---------------------------------------------------------------------------
# pixel_accuracy
# ---------------------------------------------------------------------------


def test_pixel_accuracy_perfect():
    assert pixel_accuracy(np.diag([7, 1])) == 1.0


def test_pixel_accuracy_empty_rejected():
    with pytest.raises(ValueError):
        pixel_accuracy(_zeros(2))


def test_pixel_accuracy_random_pred_law_of_large_numbers():
    c = 5
    rng = np.random.default_rng(4)
    gt = _lmap(rng.integers(0, c, size=(400, 250)), c)  # 1e5 pixels
    pred = _lmap(rng.integers(0, c, size=(400, 250)), c)
    counts = accumulate(_zeros(c), pred, gt)
    assert pixel_accuracy(counts) == pytest.approx(1.0 / c, abs=0.01)


def test_relabeling_equivariance():
    rng = np.random.default_rng(5)
    gt = rng.integers(0, 4, size=(20, 20))
    pred = rng.integers(0, 4, size=(20, 20))
    counts = accumulate(_zeros(4), _lmap(pred, 4), _lmap(gt, 4))
    perm = np.array([2, 0, 3, 1])
    counts_perm = accumulate(_zeros(4), _lmap(perm[pred], 4), _lmap(perm[gt], 4))
    assert miou(counts_perm) == pytest.approx(miou(counts), abs=1e-12)
    assert pixel_accuracy(counts_perm) == pytest.approx(pixel_accuracy(counts), abs=1e-12)
    # the matrix itself is the permuted original
    assert np.array_equal(counts_perm, counts[np.ix_(np.argsort(perm), np.argsort(perm))])


# ---------------------------------------------------------------------------
# temporal_consistency (the per-pixel consistency oracle)
# ---------------------------------------------------------------------------


def test_consistency_constant_predictions():
    preds = [_lmap([[0, 1]], 2)] * 3
    assert temporal_consistency(preds, np.ones((1, 2), dtype=bool)) == 1.0


def test_consistency_alternating_predictions():
    a = _lmap([[0, 0]], 2)
    b = _lmap([[1, 1]], 2)
    assert temporal_consistency([a, b, a, b], np.ones((1, 2), dtype=bool)) == 0.0


def test_consistency_three_frames_one_flip():
    # 2 static pixels x 2 transitions = 4 pairs; pixel 1 flips once -> 3/4
    f0 = _lmap([[0, 0]], 2)
    f1 = _lmap([[0, 1]], 2)
    f2 = _lmap([[0, 1]], 2)
    static = np.ones((1, 2), dtype=bool)
    assert temporal_consistency([f0, f1, f2], static) == pytest.approx(0.75, abs=1e-12)


def test_consistency_respects_masks():
    # the flipping pixel is not static, so it never counts
    f0 = _lmap([[0, 0]], 2)
    f1 = _lmap([[0, 1]], 2)
    assert temporal_consistency([f0, f1], np.array([[True, False]])) == 1.0


def test_consistency_needs_two_frames_and_static_pixels():
    with pytest.raises(ValueError):
        temporal_consistency([_lmap([[0]], 1)], np.ones((1, 1), dtype=bool))
    with pytest.raises(ValueError):
        temporal_consistency([_lmap([[0]], 1)] * 2, np.zeros((1, 1), dtype=bool))


@pytest.mark.parametrize("odd_frame", [0, 1, 2])
def test_consistency_rejects_a_mask_shaped_unlike_any_frame(odd_frame):
    preds = [_lmap([[0, 1]], 2)] * 3
    preds[odd_frame] = _lmap([[0], [1]], 2)
    with pytest.raises(ValueError, match="static mask shape"):
        temporal_consistency(preds, np.ones((1, 2), dtype=bool))
    with pytest.raises(ValueError, match="static mask shape"):
        temporal_consistency([_lmap([[0, 1]], 2)] * 3, np.ones((2, 1), dtype=bool))


# ---------------------------------------------------------------------------
# evaluate_clip of per-pixel predictions
# ---------------------------------------------------------------------------


def test_evaluate_clip_bundles_everything():
    gt = [_lmap([[0, 1]], 2), _lmap([[0, 1]], 2)]
    pred = [_lmap([[0, 1]], 2), _lmap([[0, 0]], 2)]
    scores = _score_maps(gt, pred, 2)
    assert sorted(scores) == ["miou", "pixel_accuracy", "temporal_consistency"]
    # confusion over both frames: gt (0,1,0,1), pred (0,1,0,0)
    assert scores["pixel_accuracy"] == pytest.approx(0.75, abs=1e-12)
    # IoU_0 = 2/3, IoU_1 = 1/2
    assert scores["miou"] == pytest.approx((2 / 3 + 1 / 2) / 2, abs=1e-12)
    # both pixels gt-static; pixel 1 flips -> 1/2
    assert scores["temporal_consistency"] == pytest.approx(0.5, abs=1e-12)


def test_evaluate_clip_scores_consistency_on_globally_static_pixels():
    # three of four pixels keep their ground-truth class; only those count
    gt = [_lmap([[0, 1], [2, 2]], 3), _lmap([[0, 2], [2, 2]], 3)]
    flip_moving = [_lmap([[0, 1], [2, 2]], 3), _lmap([[0, 0], [2, 2]], 3)]
    assert _score_maps(gt, flip_moving, 3)["temporal_consistency"] == 1.0
    flip_static = [_lmap([[0, 1], [2, 2]], 3), _lmap([[0, 1], [1, 2]], 3)]
    assert _score_maps(gt, flip_static, 3)["temporal_consistency"] == 2 / 3


def test_evaluate_clip_rejects_empty_and_mismatched_clips():
    frame = _lmap([[0, 1]], 2)
    with pytest.raises(ValueError, match="0 gt frames vs 0 indexes"):
        _score_maps(np.zeros((0, 1, 2), dtype=np.int64), [], 2)
    with pytest.raises(ValueError, match="2 gt frames vs 1 indexes"):
        _score_maps([frame, frame], [frame], 2)
    tally = tally_clip(np.array([frame, frame]), [frame] * 2, 2)
    with pytest.raises(ValueError, match="1 frames of row labels vs 2 tallied"):
        evaluate_clip(tally, [np.arange(2)])
    # a prediction over more classes than the ground truth has
    with pytest.raises(ValueError, match=r"row labels must lie in \[0, 2\)"):
        evaluate_clip(tally_clip(np.array([frame]), [np.array([[0, 2]])], 2), [np.arange(3)])


def test_evaluate_clip_single_frame_has_null_consistency():
    gt = [_lmap([[0, 1]], 2)]
    scores = _score_maps(gt, gt, 2)
    assert scores == {"miou": 1.0, "pixel_accuracy": 1.0, "temporal_consistency": None}


# ---------------------------------------------------------------------------
# evaluate_clip of per-pixel predictions against per-pixel loops
# ---------------------------------------------------------------------------


def _reference_scores(gt, pred, c):
    """(mIoU, pixel accuracy, consistency) by per-pixel Python loops over nested lists."""
    g = [np.asarray(m).tolist() for m in gt]
    p = [np.asarray(m).tolist() for m in pred]
    t_len, h, w = len(g), len(g[0]), len(g[0][0])
    inter, gt_count, pred_count = [0] * c, [0] * c, [0] * c
    for t in range(t_len):
        for y in range(h):
            for x in range(w):
                gt_count[g[t][y][x]] += 1
                pred_count[p[t][y][x]] += 1
                if g[t][y][x] == p[t][y][x]:
                    inter[g[t][y][x]] += 1
    ious = [
        inter[k] / (gt_count[k] + pred_count[k] - inter[k])
        for k in range(c)
        if gt_count[k] + pred_count[k] > 0
    ]
    # averaged with numpy's own summation order, so the comparison can be exact
    mean_iou = float(np.mean(ious))
    accuracy = sum(inter) / (t_len * h * w)
    static = [
        (y, x)
        for y in range(h)
        for x in range(w)
        if all(g[t][y][x] == g[0][y][x] for t in range(t_len))
    ]
    if t_len < 2 or not static:
        return mean_iou, accuracy, None
    same = sum(p[t][y][x] == p[t + 1][y][x] for t in range(t_len - 1) for y, x in static)
    return mean_iou, accuracy, same / ((t_len - 1) * len(static))


def _clip_scores(gt, pred, c):
    scores = _score_maps(gt, pred, c)
    return scores["miou"], scores["pixel_accuracy"], scores["temporal_consistency"]


@pytest.mark.parametrize("c", range(1, 7))
@pytest.mark.parametrize("t_len", [1, 2, 5])
def test_evaluate_clip_equals_per_pixel_loops(t_len, c):
    rng = np.random.default_rng(100 * t_len + c)
    for _ in range(4):
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        # each frame keeps most of the previous frame's labels, so static pixels occur
        gt = [rng.integers(0, c, size=(h, w))]
        for _ in range(t_len - 1):
            gt.append(np.where(rng.random((h, w)) < 0.2, rng.integers(0, c, size=(h, w)), gt[-1]))
        pred = [np.where(rng.random((h, w)) < 0.7, g, rng.integers(0, c, size=(h, w))) for g in gt]
        gt_maps = [_lmap(g, c) for g in gt]
        pred_maps = [_lmap(q, c) for q in pred]
        assert _clip_scores(gt_maps, pred_maps, c) == _reference_scores(gt_maps, pred_maps, c)


def test_evaluate_clip_with_no_static_pixel_equals_per_pixel_loops():
    rng = np.random.default_rng(11)
    first = rng.integers(0, 3, size=(4, 5))
    gt = [_lmap((first + t) % 3, 3) for t in range(3)]  # every pixel changes class
    pred = [_lmap(rng.integers(0, 3, size=(4, 5)), 3) for _ in range(3)]
    scores = _clip_scores(gt, pred, 3)
    assert scores[2] is None
    assert scores == _reference_scores(gt, pred, 3)


def test_evaluate_clip_with_every_pixel_static_equals_per_pixel_loops():
    rng = np.random.default_rng(12)
    gt = [_lmap(rng.integers(0, 4, size=(6, 3)), 4)] * 5
    pred = [_lmap(rng.integers(0, 4, size=(6, 3)), 4) for _ in range(5)]
    assert _clip_scores(gt, pred, 4) == _reference_scores(gt, pred, 4)


# ---------------------------------------------------------------------------
# tally_clip / evaluate_clip over palette rows
# ---------------------------------------------------------------------------


def _per_pixel_scores(gt, preds, c):
    """The scores from per-frame ``accumulate`` and one ``temporal_consistency`` call."""
    counts = _zeros(c)
    for g, p in zip(gt, preds):
        counts = accumulate(counts, p, g)
    static = np.logical_and.reduce([g == gt[0] for g in gt])
    tc = temporal_consistency(preds, static) if len(gt) > 1 and static.any() else None
    return {"miou": miou(counts), "pixel_accuracy": pixel_accuracy(counts), "temporal_consistency": tc}


def _small_tally():
    # frame 0 uses rows 0..2 of its palette, frame 1 rows 0..1
    gt = np.array([[[0, 1], [1, 1]], [[0, 1], [0, 1]]])
    return tally_clip(gt, [np.array([[0, 1], [2, 2]]), np.array([[1, 0], [0, 1]])], 2)


def test_score_rows_hand_example():
    tally = _small_tally()
    assert tally[:3] == (2, (3, 2), 3)  # classes, rows used per frame, static pixels
    # frame 0 predicts [[0, 1], [1, 1]], frame 1 [[1, 0], [0, 1]]
    scores = evaluate_clip(tally, [np.array([0, 1, 1]), np.array([0, 1])])
    gt = [_lmap([[0, 1], [1, 1]], 2), _lmap([[0, 1], [0, 1]], 2)]
    preds = [_lmap([[0, 1], [1, 1]], 2), _lmap([[1, 0], [0, 1]], 2)]
    assert scores == _per_pixel_scores(gt, preds, 2)
    assert scores["pixel_accuracy"] == 6 / 8
    assert scores["temporal_consistency"] == 1 / 3  # of the 3 static pixels only (1, 1) keeps 1


def test_score_rows_ignores_rows_no_pixel_uses():
    tally = _small_tally()
    base = evaluate_clip(tally, [np.array([0, 1, 1]), np.array([0, 1])])
    longer = evaluate_clip(tally, [np.array([0, 1, 1, 0, 1]), np.array([0, 1, 1], dtype=np.uint8)])
    assert longer == base


@pytest.mark.parametrize(
    "labels, match",
    [
        ([np.array([0, 1, 1])], "1 frames of row labels vs 2 tallied"),
        ([np.array([0, 1, 1])] * 3, "3 frames of row labels vs 2 tallied"),
        ([np.array([0, 1]), np.array([0, 1])], "frame 0: .*at least 3 of them"),
        ([np.array([0, 1, 1]), np.array([0])], "frame 1: .*at least 2 of them"),
        ([np.array([[0, 1, 1]]), np.array([0, 1])], "frame 0: .*1-D"),
        ([np.array([0.0, 1.0, 1.0]), np.array([0, 1])], "frame 0: .*integers"),
        ([np.array([0, 1, 1]), np.array([True, False])], "frame 1: .*integers"),
        ([np.array([0, 1, 2]), np.array([0, 1])], r"must lie in \[0, 2\)"),
        ([np.array([0, 1, 1]), np.array([-1, 1])], r"must lie in \[0, 2\)"),
    ],
    ids=["too_few_frames", "too_many_frames", "short_frame_0", "short_frame_1", "two_d",
         "float", "bool", "class_too_high", "negative"],
)
def test_score_rows_rejects_bad_row_labels(labels, match):
    with pytest.raises(ValueError, match=match):
        evaluate_clip(_small_tally(), labels)


def test_tally_clip_rejects_mismatched_indexes():
    gt = np.array([[[0, 1], [1, 1]]] * 2, dtype=np.uint8)
    index = np.zeros((2, 2), dtype=np.intp)
    with pytest.raises(ValueError, match="2 gt frames vs 1 indexes"):
        tally_clip(gt, [index], 2)
    with pytest.raises(ValueError, match="2 gt frames vs 3 indexes"):
        tally_clip(gt, [index] * 3, 2)
    with pytest.raises(ValueError, match="0 gt frames vs 0 indexes"):
        tally_clip(gt[:0], [], 2)
    for bad_gt in (gt[0], gt.astype(bool)):
        with pytest.raises(ValueError, match=r"must be a \(T, H, W\) integer array"):
            tally_clip(bad_gt, [index, index], 2)
    for bad_gt in (gt + 1, gt.astype(np.int64) - 1):
        with pytest.raises(ValueError, match=r"gt labels must lie in \[0, 2\)"):
            tally_clip(bad_gt, [index, index], 2)
    for bad in (np.zeros((2, 3), dtype=np.intp), np.zeros(4, dtype=np.intp),
                np.zeros((2, 2)), np.full((2, 2), -1)):
        with pytest.raises(ValueError, match=r"is not a row grid like \(2, 2\)"):
            tally_clip(gt, [index, bad], 2)


def test_tally_counts_by_clip_row():
    _, _, _, counts, pairs = _small_tally()
    # columns (row, gt class, pixels); frame 1's rows 0 and 1 are clip rows 3 and 4
    assert counts.tolist() == [[0, 1, 2, 3, 3, 4, 4], [0, 1, 1, 0, 1, 0, 1], [1, 1, 2, 1, 1, 1, 1]]
    # columns (row, next frame's row, static pixels)
    assert pairs.tolist() == [[0, 1, 2], [4, 3, 4], [1, 1, 1]]
    for arr in (counts, pairs):
        assert arr.dtype == np.int64 and not arr.flags.writeable


@st.composite
def _hand_clips(draw):
    """Frames with palettes of different sizes, random row labels, chosen static pixels."""
    t_len = draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    c = draw(st.integers(1, 4))
    static = draw(st.sampled_from(["some", "none", "all"] if c > 1 and t_len > 1 else ["all"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = rng.integers(0, c, size=(h, w))
    if static == "all":
        gt = [first] * t_len
    elif static == "none":
        gt = [(first + t) % c for t in range(t_len)]
    else:
        gt = [np.where(rng.random((h, w)) < 0.3, rng.integers(0, c, size=(h, w)), first)
              for _ in range(t_len)]
    sizes = [draw(st.integers(1, 7)) for _ in range(t_len)]
    indexes = [rng.integers(0, p, size=(h, w)) for p in sizes]
    rows = [rng.integers(0, c, size=p + draw(st.integers(0, 2))) for p in sizes]
    return np.array(gt), indexes, rows, c


@given(_hand_clips())
@settings(max_examples=150, deadline=None)
def test_score_rows_equals_per_pixel_scores_on_hand_built_clips(clip):
    gt, indexes, rows, c = clip
    preds = [_lmap(r[index], c) for r, index in zip(rows, indexes)]
    scores = evaluate_clip(tally_clip(gt, indexes, c), rows)
    assert scores == _score_maps(gt, preds, c) == _per_pixel_scores(gt, preds, c)


@st.composite
def _scene_cases(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, k + 3))  # n > k: surplus queries
    spec = SceneSpec(
        t_len=draw(st.integers(1, 4)),
        n_tracks=k,
        n_queries=n,
        dim=draw(st.sampled_from(sorted({n, n + 5, 16, 64}))),
        num_classes=draw(st.integers(1, k + 1)),
        grid=(draw(st.integers(1, 16)), draw(st.integers(1, 16))),
        noise_sigma=draw(st.sampled_from([0.0, 0.3])),
        permute_per_frame=draw(st.booleans()),
        motion=draw(st.integers(0, 2)),  # motion 0 keeps every pixel static
        seed=draw(st.integers(0, 2**32)),
    )
    boundary = draw(st.sampled_from(list(BoundaryPolicy)))
    shift = plan_shift(draw(st.sampled_from(["0", "1/8", "1/4", "1/2"])), spec.dim, boundary)
    return spec, shift, draw(st.booleans()), draw(st.booleans())


@given(_scene_cases())
@settings(max_examples=120, deadline=None)
def test_score_rows_equals_per_pixel_scores_on_scenes(case):
    spec, shift, matching, loaded = case
    scene = generate_scene(spec)
    if loaded:  # one palette row per pixel
        with tempfile.TemporaryDirectory() as tmp:
            save_scene(scene, tmp)
            scene = load_scene(tmp)
    q = scene.queries
    alignment = align_clip(q) if matching else ClipAlignment.identity(q.t_len, q.n_queries)
    c = spec.num_classes
    tally = tally_clip(scene.gt_labels, [pixels.index for pixels in scene.pixels], c)
    rows = run_clip(scene, shift, alignment)
    preds = [_lmap(r[pixels.index], c) for r, pixels in zip(rows, scene.pixels)]
    assert evaluate_clip(tally, rows) == _per_pixel_scores(scene.gt_labels, preds, c)
