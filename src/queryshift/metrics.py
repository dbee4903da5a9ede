"""Evaluation: (C, C) confusion counts, mIoU, pixel accuracy, temporal consistency.

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

A clip is scored over palette rows: ``tally_clip`` counts its pixels once,
and ``evaluate_clip`` scores a prediction of one class per palette row from
those counts alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["miou", "pixel_accuracy", "tally_clip", "evaluate_clip"]


def _checked_counts(counts: np.ndarray) -> np.ndarray:
    """``counts`` if it is a non-empty square array of non-negative integers."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 1:
        raise ValueError(f"confusion counts must be a non-empty square array, got {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"confusion counts must be integers, got dtype {counts.dtype}")
    if np.any(counts < 0):
        raise ValueError("confusion counts must be non-negative")
    return counts


def miou(counts: np.ndarray) -> float:
    """Mean IoU over classes present in ground truth or prediction."""
    counts = _checked_counts(counts)
    inter = np.diag(counts)
    union = counts.sum(axis=1) + counts.sum(axis=0) - inter  # exact integers
    present = union > 0
    if not np.any(present):
        raise ValueError("mIoU undefined: no class present in gt or prediction")
    return float(np.mean(inter[present] / union[present]))


def pixel_accuracy(counts: np.ndarray) -> float:
    counts = _checked_counts(counts)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("pixel accuracy undefined on empty confusion counts")
    return float(np.trace(counts) / total)


def tally_clip(gt_labels: np.ndarray, indexes: Sequence[np.ndarray], num_classes: int) -> tuple:
    """Count a clip's pixels once, from each frame's (H, W) grid of palette rows.

    ``gt_labels`` is the (T, H, W) integer array of gt classes in
    [0, num_classes).  Returns ``(num_classes, used, static, counts, pairs)``.
    Frame t's row r is clip row ``sum(used[:t]) + r``; ``used[t]`` is one past
    its largest.  Read-only int64 columns: (clip row, gt class, pixels) in
    ``counts``, and (clip row, row in the next frame, pixels) in ``pairs`` of
    the ``static`` pixels, whose gt class never changes.
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
    used = [int(index.max()) + 1 for index in grids]
    starts = np.cumsum(used) - used
    static = np.all(gt == gt[0], axis=0)
    counts, pairs = [], [np.zeros((3, 0), np.int64)]
    for start, labels, index in zip(starts, gt, grids):
        keys, pixels = np.unique(index.astype(np.int64) * c + labels, return_counts=True)
        counts.append((start + keys // c, keys % c, pixels))
    for t, (a, b) in enumerate(zip(grids, grids[1:])):
        # frame-local rows keep each key below used[t] * used[t + 1]
        n = used[t + 1]
        keys, pixels = np.unique(a[static].astype(np.int64) * n + b[static], return_counts=True)
        pairs.append((starts[t] + keys // n, starts[t + 1] + keys % n, pixels))
    counts, pairs = np.hstack(counts), np.hstack(pairs)
    counts.setflags(write=False)
    pairs.setflags(write=False)
    return c, tuple(used), int(static.sum()), counts, pairs


def evaluate_clip(tally: tuple, row_labels: Sequence[np.ndarray]) -> dict[str, float | None]:
    """Score a prediction of the clip counted in ``tally`` (from ``tally_clip``).

    ``row_labels[t]`` is a 1-D integer class per palette row of frame t, as
    ``run_clip`` returns; only the rows frame t uses are read.  Returns
    ``{"miou", "pixel_accuracy", "temporal_consistency"}``, the last None
    unless T > 1 and a pixel is static.
    """
    c, used, static, counts, pairs = tally
    if len(row_labels) != len(used):
        raise ValueError(f"{len(row_labels)} frames of row labels vs {len(used)} tallied")
    for t, (labels, n) in enumerate(zip(row_labels, used)):
        if np.ndim(labels) != 1 or len(labels) < n or np.asarray(labels).dtype.kind not in "iu":
            raise ValueError(f"frame {t}: row labels must be 1-D integers, at least {n} of them")
    flat = np.concatenate([r[:n] for r, n in zip(row_labels, used)], dtype=np.int64)
    if flat.min() < 0 or flat.max() >= c:
        raise ValueError(f"row labels must lie in [0, {c})")
    rows, classes, pixels = counts
    # float weights hold every count exactly (below 2**53); cast back before the metrics
    joint = np.bincount(classes * c + flat[rows], pixels, c * c).astype(np.int64).reshape(c, c)
    a, b, kept = pairs
    same = int(kept[flat[a] == flat[b]].sum())
    tc = same / (static * (len(used) - 1)) if len(used) > 1 and static else None
    return {"miou": miou(joint), "pixel_accuracy": pixel_accuracy(joint), "temporal_consistency": tc}
