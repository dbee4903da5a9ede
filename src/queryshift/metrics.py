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

A clip is scored over palette rows: ``evaluate_clip`` counts its pixels
once, per (palette row, gt class) and, for the static pixels, per pair of
rows in consecutive frames, then scores predictions of one class per
palette row from those counts alone: one array pass scores every cell of
a sweep, all but each cell's mean IoU over its present classes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["evaluate_clip"]


def evaluate_clip(
    gt_labels: np.ndarray, indexes: Sequence[np.ndarray], num_classes: int, cells: Sequence
) -> list[dict[str, float | None]]:
    """Score predictions of one clip, given as a class per palette row, one per cell.

    ``gt_labels`` is the (T, H, W) integer array of gt classes in
    [0, num_classes) and ``indexes[t]`` frame t's (H, W) grid of palette rows.
    ``cells[s][t]`` is a 1-D integer class per palette row of frame t, as
    ``run_clip`` returns for cell s; only the rows frame t uses are read.
    Each cell's ``{"miou", "pixel_accuracy", "temporal_consistency"}``, the
    last None unless T > 1 and a pixel is static, comes from one joint count.
    """
    gt, c = np.asarray(gt_labels), num_classes
    if gt.ndim != 3 or gt.dtype.kind not in "iu":
        raise ValueError(f"gt labels must be a (T, H, W) integer array, got {gt.dtype} {gt.shape}")
    if len(gt) != len(indexes) or gt.size == 0:
        raise ValueError(f"{len(gt)} gt frames vs {len(indexes)} indexes")
    if gt.min() < 0 or gt.max() >= c:
        raise ValueError(f"gt labels must lie in [0, {c})")
    grids = [np.asarray(index) for index in indexes]
    for index in grids:
        if index.shape != gt.shape[1:] or index.dtype.kind not in "iu" or index.min() < 0:
            raise ValueError(
                f"index {index.dtype} {index.shape} is not a row grid like {gt.shape[1:]}"
            )
    # frame t's row r is clip row sum(used[:t]) + r; used[t] is one past its largest
    used = [int(index.max()) + 1 for index in grids]
    rows = np.stack(grids, dtype=np.int64)
    rows += (np.cumsum(used) - used)[:, None, None]  # clip rows, rising with t
    static = np.all(gt == gt[0], axis=0)  # the pixels whose gt class never changes
    # one sorted pass each, in clip-row order: the frames' (or frame pairs') passes in turn;
    # pixels per (clip row, gt class), static pixels per (clip row, row in the next frame)
    keys, pixels = np.unique(rows * c + gt, return_counts=True)
    at, classes = divmod(keys, c)
    moved, n = rows[:, static], sum(used)
    keys, kept = np.unique(moved[:-1] * n + moved[1:], return_counts=True)
    a, b = divmod(keys, n)
    flat = np.empty((len(cells), n), np.int64)  # cell s, clip row -> class
    for s, row_labels in enumerate(cells):
        if len(row_labels) != len(used):
            raise ValueError(f"{len(row_labels)} frames of row labels vs {len(used)} tallied")
        for t, (labels, m) in enumerate(zip(row_labels, used)):
            if np.ndim(labels) != 1 or len(labels) < m or np.asarray(labels).dtype.kind not in "iu":
                raise ValueError(
                    f"frame {t}: row labels must be 1-D integers, at least {m} of them"
                )
        flat[s] = np.concatenate([r[:m] for r, m in zip(row_labels, used)], dtype=np.int64)
    if np.any((flat < 0) | (flat >= c)):
        raise ValueError(f"row labels must lie in [0, {c})")
    keys = np.arange(len(cells))[:, None] * (c * c) + classes * c + flat[:, at]
    # float weights hold every count exactly (below 2**53); cast back before the metrics
    joint = np.bincount(keys.ravel(), np.tile(pixels, len(cells)), len(cells) * c * c)
    same = np.where(flat[:, a] == flat[:, b], kept, 0).sum(axis=1)
    steps = int(static.sum()) * (len(used) - 1)
    # every cell at once: each counts all T*H*W pixels, and each gt class has a union > 0
    joint = joint.astype(np.int64).reshape(-1, c, c)
    inter = np.diagonal(joint, axis1=1, axis2=2)
    union = joint.sum(axis=2) + joint.sum(axis=1) - inter  # exact integers
    present = union > 0
    ratios = inter / np.where(present, union, 1)
    accuracy = (inter.sum(axis=1) / gt.size).tolist()
    consistency = (same / steps).tolist() if steps else [None] * len(cells)
    # a mean per cell: above 8 classes a masked row sum (8 partial sums) rounds differently
    return [{"miou": float(np.mean(r[p])), "pixel_accuracy": acc, "temporal_consistency": tc}
            for r, p, acc, tc in zip(ratios, present, accuracy, consistency)]
