"""Evaluation: mIoU, pixel accuracy and temporal consistency of a clip's predictions.

Conventions
-----------
Confusion rows are ground truth, columns are prediction.  mIoU averages
intersection-over-union over the classes that appear in ground truth or
prediction at least once; classes absent from both are excluded rather than
counted as IoU 1 (or 0), so padding the class space does not move the score.
Temporal consistency is measured on the static pixels, those whose ground
truth class never changes over the clip: over every static pixel and every
pair of consecutive frames, the fraction whose predicted label did not change
across that transition.

A clip is scored over clip rows, its frames' palette rows numbered in turn:
``evaluate_clip`` counts its pixels once, per (clip row, gt class) and,
for the static pixels, per pair of rows in consecutive frames, then scores
predictions of one class per clip row from those counts alone: one array
pass scores every cell of a sweep, all but each cell's mean IoU over its
present classes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["evaluate_clip"]


def evaluate_clip(
    gt_labels: np.ndarray, rows: np.ndarray, num_classes: int, classes: np.ndarray
) -> list[dict[str, float | None]]:
    """Score predictions of one clip, each a class per clip row, one per row of ``classes``.

    ``gt_labels`` is the (T, H, W) integer array of gt classes in
    [0, num_classes) and ``rows`` the (T, H, W) grid of clip rows in [0, R).
    Row m of the (M, R) integer ``classes`` predicts ``classes[m][rows]``, as
    ``run_clip`` returns them.  Each prediction's ``{"miou",
    "pixel_accuracy", "temporal_consistency"}``, the last None unless T > 1
    and a pixel is static, comes from one joint count.
    """
    gt, c, classes = np.asarray(gt_labels), num_classes, np.asarray(classes)
    if gt.ndim != 3 or gt.dtype.kind not in "iu" or gt.size == 0:
        raise ValueError(f"gt labels must be a non-empty (T, H, W) integer array, got {gt.shape}")
    if gt.min() < 0 or gt.max() >= c:
        raise ValueError(f"gt labels must lie in [0, {c})")
    if classes.ndim != 2 or classes.dtype.kind not in "iu":
        raise ValueError(f"classes must be an (M, R) integer array, got {classes.dtype}")
    if classes.size and (classes.min() < 0 or classes.max() >= c):
        raise ValueError(f"classes must lie in [0, {c})")
    classes = classes.astype(np.int64, copy=False)
    rows, n = np.asarray(rows), classes.shape[1]
    if rows.shape != gt.shape or rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"rows must be a {gt.shape} integer grid in [0, {n}), got {rows.shape}")
    rows = rows.astype(np.int64, copy=False)
    static = np.all(gt == gt[0], axis=0)  # the pixels whose gt class never changes
    # one sorted pass each: pixels per (clip row, gt class), and
    # static pixels per (clip row, row in the next frame)
    keys, pixels = np.unique(rows * c + gt, return_counts=True)
    at, gt_classes = divmod(keys, c)
    moved = rows[:, static]
    keys, kept = np.unique(moved[:-1] * n + moved[1:], return_counts=True)
    a, b = divmod(keys, n)
    m = len(classes)
    keys = np.arange(m)[:, None] * (c * c) + gt_classes * c + classes[:, at]
    # float weights hold every count exactly (below 2**53); cast back before the metrics
    joint = np.bincount(keys.ravel(), np.tile(pixels, m), m * c * c)
    same = np.where(classes[:, a] == classes[:, b], kept, 0).sum(axis=1)
    steps = int(static.sum()) * (len(gt) - 1)
    # every prediction at once: each counts all T*H*W pixels, and each gt class has a union > 0
    joint = joint.astype(np.int64).reshape(-1, c, c)
    inter = np.diagonal(joint, axis1=1, axis2=2)
    union = joint.sum(axis=2) + joint.sum(axis=1) - inter  # exact integers
    present = union > 0
    ratios = inter / np.where(present, union, 1)
    accuracy = (inter.sum(axis=1) / gt.size).tolist()
    consistency = (same / steps).tolist() if steps else [None] * m
    # a mean per cell: above 8 classes a masked row sum (8 partial sums) rounds differently
    return [{"miou": float(np.mean(r[p])), "pixel_accuracy": acc, "temporal_consistency": tc}
            for r, p, acc, tc in zip(ratios, present, accuracy, consistency)]
