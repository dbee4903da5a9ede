"""Evaluation: confusion counts, mIoU, pixel accuracy, temporal consistency.

Conventions
-----------
Confusion rows are ground truth, columns are prediction.  mIoU averages
intersection-over-union over the classes that appear in ground truth or
prediction at least once; classes absent from both are excluded rather than
counted as IoU 1 (or 0), so padding the class space does not move the score.
Temporal consistency is measured on pixels flagged static by caller-supplied
masks: of the pixel slots static in two consecutive frames, the fraction
whose predicted label did not change across that transition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelMap

__all__ = [
    "ConfusionMatrix",
    "accumulate",
    "miou",
    "pixel_accuracy",
    "temporal_consistency",
    "global_static_masks",
    "EvalReport",
    "evaluate_clip",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) int64, [gt, pred]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {counts.shape}")
        if counts.shape[0] < 1:
            raise ValueError("confusion matrix needs at least one class")
        if np.any(counts < 0):
            raise ValueError("confusion counts must be non-negative")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def zeros(cls, num_classes: int) -> "ConfusionMatrix":
        return cls(np.zeros((num_classes, num_classes), dtype=np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate(cm: ConfusionMatrix, pred: LabelMap, gt: LabelMap) -> ConfusionMatrix:
    """Return a new matrix with one frame's (gt, pred) pairs added."""
    if gt.shape != pred.shape:
        raise ValueError(f"label shape mismatch: {gt.shape} vs {pred.shape}")
    if gt.num_classes != cm.num_classes or pred.num_classes != cm.num_classes:
        raise ValueError("class count mismatch between labels and confusion matrix")
    c = cm.num_classes
    joint = gt.labels.reshape(-1) * c + pred.labels.reshape(-1)
    add = np.bincount(joint, minlength=c * c).reshape(c, c)
    return ConfusionMatrix(cm.counts + add)


def miou(cm: ConfusionMatrix) -> float:
    """Mean IoU over classes present in ground truth or prediction."""
    inter = np.diag(cm.counts).astype(np.float64)
    union = (
        cm.counts.sum(axis=1).astype(np.float64)
        + cm.counts.sum(axis=0).astype(np.float64)
        - inter
    )
    present = union > 0
    if not np.any(present):
        raise ValueError("mIoU undefined: no class present in gt or prediction")
    return float(np.mean(inter[present] / union[present]))


def pixel_accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total
    if total == 0:
        raise ValueError("pixel accuracy undefined on an empty confusion matrix")
    return float(np.trace(cm.counts) / total)


def temporal_consistency(
    preds: Sequence[LabelMap], static_masks: Sequence[np.ndarray]
) -> float:
    """Label-stability rate on static pixels across consecutive frames.

    A pixel counts toward transition t -> t+1 if it is static in both frames;
    it counts as consistent if the predicted label is equal in both.
    """
    if len(preds) < 2:
        raise ValueError("temporal consistency needs at least two frames")
    if len(static_masks) != len(preds):
        raise ValueError(f"{len(preds)} frames but {len(static_masks)} static masks")
    same = 0
    total = 0
    for t in range(len(preds) - 1):
        m = np.asarray(static_masks[t], dtype=bool) & np.asarray(
            static_masks[t + 1], dtype=bool
        )
        if m.shape != preds[t].shape:
            raise ValueError(f"static mask shape {m.shape} != label shape {preds[t].shape}")
        total += int(m.sum())
        same += int(((preds[t].labels == preds[t + 1].labels) & m).sum())
    if total == 0:
        raise ValueError("temporal consistency undefined: no static pixel pairs")
    return same / total


def global_static_masks(gt_labels: Sequence[LabelMap]) -> tuple[np.ndarray, ...]:
    """Per-frame masks of pixels whose ground-truth label never changes."""
    if len(gt_labels) == 0:
        raise ValueError("empty clip")
    first = gt_labels[0].labels
    static = np.logical_and.reduce([g.labels == first for g in gt_labels])
    return tuple(static.copy() for _ in gt_labels)


@dataclass(frozen=True)
class EvalReport:
    """One run's scores; ``temporal_consistency`` is None when undefined."""

    miou: float
    pixel_accuracy: float
    temporal_consistency: float | None
    recovery: float
    config: dict

    def __post_init__(self):
        for name in ("miou", "pixel_accuracy", "recovery"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of range: {v}")
        tc = self.temporal_consistency
        if tc is not None and not 0.0 <= tc <= 1.0:
            raise ValueError(f"temporal_consistency out of range: {tc}")

    def to_json_dict(self) -> dict:
        return {
            "miou": self.miou,
            "pixel_accuracy": self.pixel_accuracy,
            "temporal_consistency": self.temporal_consistency,
            "recovery": self.recovery,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"


def evaluate_clip(
    gt_labels: Sequence[LabelMap],
    pred_labels: Sequence[LabelMap],
    recovery: float,
    config: dict,
) -> EvalReport:
    """Score a prediction against ground truth and bundle an EvalReport.

    Temporal consistency uses the ground truth's globally static pixels and
    is reported as None when the clip has a single frame or no static pixel.
    """
    if len(gt_labels) != len(pred_labels):
        raise ValueError(f"{len(gt_labels)} gt frames vs {len(pred_labels)} predictions")
    cm = ConfusionMatrix.zeros(gt_labels[0].num_classes)
    for gt, pred in zip(gt_labels, pred_labels):
        cm = accumulate(cm, pred, gt)
    tc: float | None
    if len(gt_labels) < 2:
        tc = None
    else:
        masks = global_static_masks(gt_labels)
        if not any(np.any(m) for m in masks):
            tc = None
        else:
            tc = temporal_consistency(pred_labels, masks)
    return EvalReport(
        miou=miou(cm),
        pixel_accuracy=pixel_accuracy(cm),
        temporal_consistency=tc,
        recovery=recovery,
        config=config,
    )
