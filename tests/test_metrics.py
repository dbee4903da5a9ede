"""Clip scoring over palette rows: hand values, and per-matrix and per-pixel oracles."""

from __future__ import annotations

import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from queryshift.matching import ClipAlignment, align_clip
from queryshift.metrics import evaluate_clip
from queryshift.pipeline import run_clip
from queryshift.shift import BoundaryPolicy, ShiftConfig
from queryshift.synth import SceneSpec, generate_scene, load_scene, save_scene

from oracles import (
    accumulate,
    evaluate_one,
    miou,
    per_frame_tally_clip,
    pixel_accuracy,
    temporal_consistency,
)


def _lmap(values, c):
    """A read-only int64 grid of classes in [0, c)."""
    labels = np.array(values, dtype=np.int64)
    assert labels.min() >= 0 and labels.max() < c
    labels.setflags(write=False)
    return labels


def _zeros(c):
    return np.zeros((c, c), dtype=np.int64)


def _flatten(indexes, cells):
    """Per-frame grids of palette rows and per-cell, per-frame row labels as ``(rows, classes)``.

    ``cells[m][t]`` labels frame t's palette rows.  Frame t keeps as many
    columns as its shortest label list has, numbered after those of the
    frames before it, so rows a frame's grid never reaches stay in.
    """
    widths = [min(len(cell[t]) for cell in cells) for t in range(len(indexes))]
    starts = np.cumsum(widths) - widths
    rows = np.stack([np.asarray(index) + start for index, start in zip(indexes, starts)])
    return rows, np.array([np.concatenate([r[:w] for r, w in zip(cell, widths)]) for cell in cells])


def _evaluate_nested(gt, indexes, c, cells):
    """``evaluate_clip`` of per-frame index grids and nested row labels, through ``_flatten``."""
    rows, classes = _flatten(indexes, cells)
    return evaluate_clip(gt, rows, c, classes)


def _score_maps(gt, pred, c):
    """``evaluate_clip`` of per-pixel predictions: each map is its own index, row k is class k."""
    return _evaluate_nested(np.array(gt), pred, c, [[np.arange(c)] * len(pred)])[0]


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
    # each oracle that reads confusion counts checks the array it is given
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
# mIoU and pixel accuracy hand values, through evaluate_clip
# ---------------------------------------------------------------------------


def test_miou_perfect():
    gt = _lmap([[0, 0, 0, 0, 0, 1, 1, 1, 2, 2]], 3)  # class counts 5, 3, 2
    assert _score_maps([gt], [gt], 3)["miou"] == pytest.approx(1.0, abs=1e-12)


def test_miou_half_half_example():
    # gt half class 0 half class 1, prediction all class 0:
    # IoU_0 = 2/4, IoU_1 = 0/2 -> mean 0.25
    gt = _lmap([[0, 0], [1, 1]], 2)
    pred = _lmap([[0, 0], [0, 0]], 2)
    scores = _score_maps([gt], [pred], 2)
    assert scores["miou"] == pytest.approx(0.25, abs=1e-12)
    assert scores["pixel_accuracy"] == pytest.approx(0.5, abs=1e-12)


def test_miou_excludes_absent_classes():
    # class 2 never appears in gt or pred: the mean runs over {0, 1} only
    gt = _lmap([[0, 1]], 3)
    pred = _lmap([[0, 0]], 3)
    # IoU_0 = 1/2, IoU_1 = 0 -> 0.25; with class 2 wrongly included it
    # would be 1/6
    assert _score_maps([gt], [pred], 3)["miou"] == pytest.approx(0.25, abs=1e-12)


def test_miou_empty_matrix_rejected():
    # the oracle refuses what evaluate_clip can never count: no pixel at all
    with pytest.raises(ValueError, match="no class present"):
        miou(_zeros(3))


def test_miou_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gt, pred = (_lmap(rng.integers(0, 4, size=(5, 7)), 4) for _ in range(2))
        assert 0.0 <= _score_maps([gt], [pred], 4)["miou"] <= 1.0


def test_pixel_accuracy_perfect():
    gt = _lmap([[0, 0, 0, 0, 0, 0, 0, 1]], 2)  # class counts 7, 1
    assert _score_maps([gt], [gt], 2)["pixel_accuracy"] == 1.0


def test_pixel_accuracy_empty_rejected():
    # the oracle refuses what evaluate_clip can never count: no pixel at all
    with pytest.raises(ValueError, match="empty confusion counts"):
        pixel_accuracy(_zeros(2))


def test_pixel_accuracy_random_pred_law_of_large_numbers():
    c = 5
    rng = np.random.default_rng(4)
    gt = _lmap(rng.integers(0, c, size=(400, 250)), c)  # 1e5 pixels
    pred = _lmap(rng.integers(0, c, size=(400, 250)), c)
    assert _score_maps([gt], [pred], c)["pixel_accuracy"] == pytest.approx(1.0 / c, abs=0.01)


def test_relabeling_equivariance():
    rng = np.random.default_rng(5)
    gt = rng.integers(0, 4, size=(20, 20))
    pred = rng.integers(0, 4, size=(20, 20))
    perm = np.array([2, 0, 3, 1])
    scores = _score_maps([_lmap(gt, 4)], [_lmap(pred, 4)], 4)
    scores_perm = _score_maps([_lmap(perm[gt], 4)], [_lmap(perm[pred], 4)], 4)
    assert scores_perm["miou"] == pytest.approx(scores["miou"], abs=1e-12)
    assert scores_perm["pixel_accuracy"] == pytest.approx(scores["pixel_accuracy"], abs=1e-12)
    # the matrix itself is the permuted original
    counts = accumulate(_zeros(4), _lmap(pred, 4), _lmap(gt, 4))
    counts_perm = accumulate(_zeros(4), _lmap(perm[pred], 4), _lmap(perm[gt], 4))
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
    frame, one = _lmap([[0, 1]], 2), np.zeros((1, 2), np.intp)
    empty = np.zeros((0, 1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match=r"gt labels must be a non-empty \(T, H, W\)"):
        evaluate_clip(empty, empty, 2, one)
    with pytest.raises(ValueError, match=r"rows must be a \(2, 1, 2\) integer grid"):
        evaluate_clip(np.array([frame, frame]), np.array([frame]), 2, one)
    # a prediction over more classes than the ground truth has
    with pytest.raises(ValueError, match=r"classes must lie in \[0, 2\)"):
        evaluate_clip(np.array([frame]), np.array([frame]), 2, np.array([[0, 2]]))


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
# evaluate_clip over palette rows
# ---------------------------------------------------------------------------


def _per_pixel_scores(gt, preds, c):
    """The scores from per-frame ``accumulate`` and one ``temporal_consistency`` call."""
    counts = _zeros(c)
    for g, p in zip(gt, preds):
        counts = accumulate(counts, p, g)
    static = np.logical_and.reduce([g == gt[0] for g in gt])
    tc = temporal_consistency(preds, static) if len(gt) > 1 and static.any() else None
    return {"miou": miou(counts), "pixel_accuracy": pixel_accuracy(counts), "temporal_consistency": tc}


def _small_clip():
    """(gt, indexes, num_classes): frame 0 uses rows 0..2 of its palette, frame 1 rows 0..1."""
    gt = np.array([[[0, 1], [1, 1]], [[0, 1], [0, 1]]])
    return gt, [np.array([[0, 1], [2, 2]]), np.array([[1, 0], [0, 1]])], 2


# _small_clip's indexes as clip rows: frame 0's palette rows are 0..2, frame 1's 3..4
_SMALL_ROWS = np.array([[[0, 1], [2, 2]], [[4, 3], [3, 4]]])
_SMALL_GT = _small_clip()[0]


def test_score_rows_hand_example():
    # frame 0 predicts [[0, 1], [1, 1]], frame 1 [[1, 0], [0, 1]]
    (scores,) = evaluate_clip(_SMALL_GT, _SMALL_ROWS, 2, np.array([[0, 1, 1, 0, 1]]))
    gt = [_lmap([[0, 1], [1, 1]], 2), _lmap([[0, 1], [0, 1]], 2)]
    preds = [_lmap([[0, 1], [1, 1]], 2), _lmap([[1, 0], [0, 1]], 2)]
    assert scores == _per_pixel_scores(gt, preds, 2)
    assert scores["pixel_accuracy"] == 6 / 8
    assert scores["temporal_consistency"] == 1 / 3  # of the 3 static pixels only (1, 1) keeps 1


def test_score_rows_ignores_rows_no_pixel_uses():
    base = evaluate_clip(_SMALL_GT, _SMALL_ROWS, 2, np.array([[0, 1, 1, 0, 1]]))
    # columns 3, 4 and 7 are no pixel's: frame 1's rows move up to 5..6
    wide = _SMALL_ROWS + np.array([0, 2])[:, None, None]
    longer = evaluate_clip(_SMALL_GT, wide, 2, np.array([[0, 1, 1, 0, 1, 0, 1, 1]], np.uint8))
    assert longer == base
    nested = [[np.array([0, 1, 1, 0, 1]), np.array([0, 1, 1], dtype=np.uint8)]]
    assert _evaluate_nested(*_small_clip(), nested) == base


_GOOD = np.array([0, 1, 1, 0, 1])
# id -> (nested labels for the oracle, its message; rows and classes for evaluate_clip, its message)
_BAD_ROW_LABELS = {
    "too_few_frames": ([np.array([0, 1, 1])], "1 frames of row labels vs 2 tallied",
                       _SMALL_ROWS[:1], [_GOOD], r"rows must be a \(2, 2, 2\) integer grid"),
    "too_many_frames": ([np.array([0, 1, 1])] * 3, "3 frames of row labels vs 2 tallied",
                        _SMALL_ROWS[[0, 1, 0]], [_GOOD], r"rows must be a \(2, 2, 2\) integer"),
    "short_frame_0": ([np.array([0, 1]), np.array([0, 1])], "frame 0: .*at least 3 of them",
                      _SMALL_ROWS, [[0, 1]], r"integer grid in \[0, 2\)"),
    "short_frame_1": ([np.array([0, 1, 1]), np.array([0])], "frame 1: .*at least 2 of them",
                      _SMALL_ROWS, [[0, 1, 1, 0]], r"integer grid in \[0, 4\)"),
    "two_d": ([np.array([[0, 1, 1]]), np.array([0, 1])], "frame 0: .*1-D",
              _SMALL_ROWS, [[_GOOD]], r"classes must be an \(M, R\) integer array"),
    "float": ([np.array([0.0, 1.0, 1.0]), np.array([0, 1])], "frame 0: .*integers",
              _SMALL_ROWS, [_GOOD + 0.0], r"classes must be an \(M, R\) integer array"),
    "bool": ([np.array([0, 1, 1]), np.array([True, False])], "frame 1: .*integers",
             _SMALL_ROWS, [_GOOD > 0], r"classes must be an \(M, R\) integer array"),
    "class_too_high": ([np.array([0, 1, 2]), np.array([0, 1])], r"must lie in \[0, 2\)",
                       _SMALL_ROWS, [_GOOD, [0, 1, 2, 0, 1]], r"classes must lie in \[0, 2\)"),
    "negative": ([np.array([0, 1, 1]), np.array([-1, 1])], r"must lie in \[0, 2\)",
                 _SMALL_ROWS, [_GOOD, [0, 1, 1, -1, 1]], r"classes must lie in \[0, 2\)"),
}


@pytest.mark.parametrize("case", list(_BAD_ROW_LABELS))
def test_score_rows_rejects_bad_row_labels(case):
    labels, oracle_match, rows, classes, match = _BAD_ROW_LABELS[case]
    with pytest.raises(ValueError, match=match):
        evaluate_clip(_SMALL_GT, rows, 2, np.array(classes))
    with pytest.raises(ValueError, match=oracle_match):
        evaluate_one(per_frame_tally_clip(*_small_clip()), labels)


def test_evaluate_clip_of_no_cells_is_empty():
    assert evaluate_clip(_SMALL_GT, _SMALL_ROWS, 2, np.zeros((0, 5), np.intp)) == []


def test_evaluate_clip_rejects_mismatched_indexes():
    gt = np.array([[[0, 1], [1, 1]]] * 2, dtype=np.uint8)
    rows, classes = np.zeros((2, 2, 2), dtype=np.intp), np.zeros((1, 2), dtype=np.intp)
    for bad_gt in (gt[0], gt.astype(bool), gt[:0], gt[:, :0]):
        with pytest.raises(ValueError, match=r"must be a non-empty \(T, H, W\) integer array"):
            evaluate_clip(bad_gt, rows, 2, classes)
    for bad_gt in (gt + 1, gt.astype(np.int64) - 1):
        with pytest.raises(ValueError, match=r"gt labels must lie in \[0, 2\)"):
            evaluate_clip(bad_gt, rows, 2, classes)
    # another shape, not integers, negative, or past the last column of classes
    for bad in (rows[:1], rows[[0, 1, 1]], rows[0], rows[:, :, :1], rows + 0.0, rows > 0,
                rows - 1, rows + 2):
        with pytest.raises(ValueError, match=r"rows must be a \(2, 2, 2\) integer grid in \[0, 2"):
            evaluate_clip(gt, bad, 2, classes)
    assert evaluate_clip(gt, rows.astype(np.uint64) + 1, 2, classes.astype(np.uint8)) == (
        evaluate_clip(gt, rows + 1, 2, classes)
    )


def test_tally_of_a_loaded_scene_counts_palette_rows(tmp_path):
    spec = SceneSpec(
        t_len=6, n_tracks=8, n_queries=8, dim=64, num_classes=9, grid=(64, 64), motion=2
    )
    save_scene(generate_scene(spec), tmp_path)
    scene = load_scene(tmp_path)
    identity = ClipAlignment.identity(spec.t_len, spec.n_queries)
    rows, classes = run_clip(scene, [ShiftConfig("0", spec.dim)], [identity])
    # frame t's K + 1 palette rows follow the frames before it, and its grid reaches them all
    k, c = spec.n_tracks + 1, spec.num_classes
    assert classes.shape == (1, 1, spec.t_len * k)
    for t, (grid, pixels) in enumerate(zip(rows, scene.pixels)):
        assert np.array_equal(grid, pixels.index + t * k) and grid.max() == (t + 1) * k - 1
    assert len(evaluate_clip(scene.gt_labels, rows, c, classes[0])) == 1
    with pytest.raises(ValueError, match=rf"integer grid in \[0, {spec.t_len * k - 1}\)"):
        evaluate_clip(scene.gt_labels, rows, c, classes[0, :, :-1])


@st.composite
def _hand_clips(draw):
    """Frames with palettes of different sizes, 3 cells of row labels, chosen static pixels."""
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
    cells = [[rng.integers(0, c, size=p + draw(st.integers(0, 2))) for p in sizes]
             for _ in range(3)]
    return np.array(gt), indexes, cells, c


def _assert_equals_per_frame_tally(gt, indexes, c, cells):
    """Every cell scores as ``evaluate_one`` scores it from the per-frame oracle's counts.

    Several random cells read every counted row, so a miscounted row shows.
    """
    tally = per_frame_tally_clip(gt, indexes, c)
    assert _evaluate_nested(gt, indexes, c, cells) == [evaluate_one(tally, rows) for rows in cells]


@st.composite
def _palette_mixes(draw):
    """A generated scene's gt with each frame's index recovered (K + 1 rows) or identity (H*W)."""
    k = draw(st.integers(1, 5))
    spec = SceneSpec(
        t_len=draw(st.integers(1, 4)),
        n_tracks=k,
        n_queries=k,
        dim=16,
        num_classes=draw(st.integers(1, k + 1)),
        grid=(draw(st.integers(1, 12)), draw(st.integers(1, 12))),
        motion=draw(st.integers(0, 2)),  # motion 0 keeps every pixel static
        seed=draw(st.integers(0, 2**32)),
    )
    scene = generate_scene(spec)
    identity = np.arange(spec.grid[0] * spec.grid[1]).reshape(spec.grid)
    falls_back = draw(st.lists(st.booleans(), min_size=spec.t_len, max_size=spec.t_len))
    indexes = [identity if fb else p.index for fb, p in zip(falls_back, scene.pixels)]
    rng = np.random.default_rng(spec.seed)
    cells = [[rng.integers(0, spec.num_classes, size=int(i.max()) + 1) for i in indexes]
             for _ in range(4)]
    return scene.gt_labels, indexes, spec.num_classes, cells


@given(_palette_mixes())
@settings(max_examples=150, deadline=None)
def test_one_pass_tally_equals_per_frame_tally_on_palette_mixes(case):
    _assert_equals_per_frame_tally(*case)


@given(_hand_clips())
@settings(max_examples=150, deadline=None)
def test_one_pass_tally_equals_per_frame_tally_on_hand_built_clips(clip):
    gt, indexes, cells, c = clip
    _assert_equals_per_frame_tally(gt, indexes, c, cells)


@given(_hand_clips())
@settings(max_examples=150, deadline=None)
def test_score_rows_equals_per_pixel_scores_on_hand_built_clips(clip):
    gt, indexes, (rows, *_), c = clip
    preds = [_lmap(r[index], c) for r, index in zip(rows, indexes)]
    (scores,) = _evaluate_nested(gt, indexes, c, [rows])
    assert scores == _score_maps(gt, preds, c) == _per_pixel_scores(gt, preds, c)


@st.composite
def _clip_rows(draw):
    """A hand-built clip, its (T, H, W) clip rows in one of three layouts, and (M, R) classes.

    "offsets": each frame its own palette, numbered after the frames before it;
    "shared": every frame draws from one set of columns; "per_pixel": one
    column per pixel.  Up to 3 columns no pixel uses follow.
    """
    t_len = draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = rng.integers(0, c, size=(h, w))
    gt = np.array([np.where(rng.random((h, w)) < 0.3, rng.integers(0, c, size=(h, w)), first)
                   for _ in range(t_len)])
    layout = draw(st.sampled_from(["offsets", "shared", "per_pixel"]))
    if layout == "offsets":
        sizes = [draw(st.integers(1, 7)) for _ in range(t_len)]
        starts = np.cumsum(sizes) - sizes
        rows = np.stack([rng.integers(0, p, size=(h, w)) + s for p, s in zip(sizes, starts)])
    elif layout == "shared":
        rows = rng.integers(0, draw(st.integers(1, 7)), size=(t_len, h, w))
    else:
        rows = np.arange(t_len * h * w).reshape(t_len, h, w)
    r = int(rows.max()) + 1 + draw(st.integers(0, 3))
    classes = rng.integers(0, c, size=(draw(st.integers(1, 5)), r))
    return gt, rows, c, classes


@given(_clip_rows())
@settings(max_examples=200, deadline=None)
def test_evaluate_clip_scores_each_row_of_classes_through_the_rows_grid(case):
    gt, rows, c, classes = case
    assert evaluate_clip(gt, rows, c, classes) == [
        _per_pixel_scores(gt, prediction[rows], c) for prediction in classes
    ]


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
    shift = ShiftConfig(draw(st.sampled_from(["0", "1/8", "1/4", "1/2"])), spec.dim, boundary)
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
    rows, classes = run_clip(scene, [shift], [alignment])
    assert evaluate_clip(scene.gt_labels, rows, c, classes[0]) == [
        _per_pixel_scores(scene.gt_labels, classes[0, 0][rows], c)
    ]


@st.composite
def _many_cells(draw):
    """A hand-built clip of up to 40 classes, some absent, and up to 6 cells of row labels."""
    t_len = draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    c = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # gt and predictions each draw from their own random subset of the classes
    gt_classes, pred_classes = (rng.choice(c, size=rng.integers(1, c + 1), replace=False)
                                for _ in range(2))
    first = rng.choice(gt_classes, size=(h, w))
    gt = [np.where(rng.random((h, w)) < 0.3, rng.choice(gt_classes, size=(h, w)), first)
          for _ in range(t_len)]
    sizes = [draw(st.integers(1, 7)) for _ in range(t_len)]
    indexes = [rng.integers(0, p, size=(h, w)) for p in sizes]
    cells = [[rng.choice(pred_classes, size=p + draw(st.integers(0, 2))) for p in sizes]
             for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):  # a repeated cell scores the same as its first copy
        cells.append(cells[0])
    return np.array(gt), indexes, c, cells


# 9 of 10 classes present: numpy sums 9 ratios in 8 partial sums, so a row sum
# with a 0 for the absent class 6 rounds to 0.10185185185185185, not this cell's
# 0.10185185185185183
_NINE_PRESENT = (
    np.array([[[4, 0, 5, 4, 7, 8, 2, 5, 7, 1, 4, 9, 5, 9]]]),
    [np.array([[8, 4, 2, 2, 8, 8, 1, 5, 4, 1, 1, 8, 7, 3]])],
    10,
    [[np.arange(10)]],
)


@given(_many_cells())
@example(_NINE_PRESENT)
@settings(max_examples=150, deadline=None)
def test_evaluate_clip_equals_one_cell_at_a_time(case):
    _assert_equals_per_frame_tally(*case)
