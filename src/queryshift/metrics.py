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


def evaluate_clip(
    gt_labels: Sequence[LabelMap], pred_labels: Sequence[LabelMap]
) -> dict[str, float | None]:
    """Score a prediction against ground truth.

    Returns ``{"miou", "pixel_accuracy", "temporal_consistency"}``.
    Temporal consistency uses the ground truth's globally static pixels and
    is None when the clip has a single frame or no static pixel.
    """
    if len(gt_labels) != len(pred_labels) or not gt_labels:
        raise ValueError(f"{len(gt_labels)} gt frames vs {len(pred_labels)} predictions")
    num_classes = gt_labels[0].num_classes
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for gt, pred in zip(gt_labels, pred_labels):
        counts = accumulate(counts, pred, gt)
    tc = None
    if len(gt_labels) > 1:
        first = gt_labels[0].labels
        static = np.logical_and.reduce([g.labels == first for g in gt_labels])
        if np.any(static):
            tc = temporal_consistency(pred_labels, static)
    return {
        "miou": miou(counts),
        "pixel_accuracy": pixel_accuracy(counts),
        "temporal_consistency": tc,
    }
