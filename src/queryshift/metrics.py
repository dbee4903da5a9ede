"""Evaluation: (C, C) confusion counts, mIoU, pixel accuracy, temporal consistency.

Conventions
-----------
Confusion rows are ground truth, columns are prediction.  mIoU averages
intersection-over-union over the classes that appear in ground truth or
prediction at least once; classes absent from both are excluded rather than
counted as IoU 1 (or 0), so padding the class space does not move the score.
Temporal consistency is measured on pixels flagged static by a caller-supplied
mask: over every static pixel and every pair of consecutive frames, the
fraction whose predicted label did not change across that transition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import LabelMap

__all__ = [
    "accumulate",
    "miou",
    "pixel_accuracy",
    "temporal_consistency",
    "tally_clip",
    "score_rows",
    "evaluate_clip",
]


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


def accumulate(counts: np.ndarray, pred: LabelMap, gt: LabelMap) -> np.ndarray:
    """A new (C, C) int64 array: ``counts`` [gt, pred] plus one frame's pairs."""
    counts = _checked_counts(counts)
    if gt.shape != pred.shape:
        raise ValueError(f"label shape mismatch: {gt.shape} vs {pred.shape}")
    c = counts.shape[0]
    if gt.num_classes != c or pred.num_classes != c:
        raise ValueError("class count mismatch between labels and confusion counts")
    joint = gt.labels.reshape(-1) * c + pred.labels.reshape(-1)
    added = np.bincount(joint, minlength=c * c).reshape(c, c)
    added += counts
    return added


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


def temporal_consistency(preds: Sequence[LabelMap], static: np.ndarray) -> float:
    """Label-stability rate on static pixels across consecutive frames.

    ``static`` is one (H, W) mask.  Each static pixel counts once per
    transition t -> t+1, as consistent if its predicted label is equal in
    both frames.
    """
    if len(preds) < 2:
        raise ValueError("temporal consistency needs at least two frames")
    static = np.asarray(static, dtype=bool)
    shapes = {pred.shape for pred in preds}
    if shapes != {static.shape}:
        raise ValueError(f"static mask shape {static.shape} != label shape(s) {sorted(shapes)}")
    total = int(static.sum()) * (len(preds) - 1)
    if total == 0:
        raise ValueError("temporal consistency undefined: no static pixel pairs")
    same = sum(int(((a.labels == b.labels) & static).sum()) for a, b in zip(preds, preds[1:]))
    return same / total


def tally_clip(gt_labels: Sequence[LabelMap], indexes: Sequence[np.ndarray]) -> tuple:
    """Count a clip's pixels once, from each frame's (H, W) grid of palette rows.

    Returns ``(num_classes, used, static, counts, pairs)``.  Frame t's row r
    is clip row ``sum(used[:t]) + r``; ``used[t]`` is one past its largest.
    Read-only int64 columns: (clip row, gt class, pixels) in ``counts``, and
    (clip row, row in the next frame, pixels) in ``pairs`` of the ``static``
    pixels, whose gt class never changes.
    """
    if len(gt_labels) != len(indexes) or not gt_labels:
        raise ValueError(f"{len(gt_labels)} gt frames vs {len(indexes)} indexes")
    c = gt_labels[0].num_classes
    grids = [np.asarray(index) for index in indexes]
    for gt, index in zip(gt_labels, grids):
        if gt.num_classes != c:
            raise ValueError("class count mismatch between gt frames")
        if index.shape != gt.shape or index.dtype.kind not in "iu" or index.min() < 0:
            raise ValueError(f"index {index.dtype} {index.shape} is not a row grid like {gt.shape}")
    used = [int(index.max()) + 1 for index in grids]
    starts = np.cumsum(used) - used
    static = np.logical_and.reduce([gt.labels == gt_labels[0].labels for gt in gt_labels])
    counts, pairs = [], [np.zeros((3, 0), np.int64)]
    for start, gt, index in zip(starts, gt_labels, grids):
        keys, pixels = np.unique(index.astype(np.int64) * c + gt.labels, return_counts=True)
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


def score_rows(tally: tuple, row_labels: Sequence[np.ndarray]) -> dict[str, float | None]:
    """Score ``row_labels[t]``, a 1-D integer class per palette row of frame t.

    Reads only the rows frame t uses.  Returns ``{"miou", "pixel_accuracy",
    "temporal_consistency"}``, the last None unless T > 1 and a pixel is static.
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


def evaluate_clip(
    gt_labels: Sequence[LabelMap], pred_labels: Sequence[LabelMap]
) -> dict[str, float | None]:
    """``score_rows`` of per-pixel predictions: each frame's labels index rows 0..C-1."""
    if len(gt_labels) != len(pred_labels) or not gt_labels:
        raise ValueError(f"{len(gt_labels)} gt frames vs {len(pred_labels)} predictions")
    c = gt_labels[0].num_classes
    if any(pred.num_classes != c for pred in pred_labels):
        raise ValueError("class count mismatch between gt and predicted labels")
    tally = tally_clip(gt_labels, [pred.labels for pred in pred_labels])
    return score_rows(tally, [np.arange(c)] * len(pred_labels))
