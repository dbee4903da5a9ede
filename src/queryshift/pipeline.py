"""End-to-end clip processing: match, shift, decode, label.

The order of operations is the point of this module.  ``feature_shift``
blends channel values across consecutive frames BY QUERY INDEX, so it is only
meaningful if index i refers to the same object in every frame.  The pipeline
therefore first aligns the clip (cross-frame matching), re-indexes every
frame into frame 0's index space, shifts there, and maps the result back to
each frame's native order.  With matching disabled the alignment is the
identity and the result is bit-for-bit a plain shift of the raw clip,
which is the ablation the evaluation compares against.  The caller makes the
alignment (``align_clip`` or ``ClipAlignment.identity``), so one alignment
serves every shift run on the same clip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClipQueryTensor, FrameQuerySet, LabelMap, PixelEmbeddingMap
from .matching import ClipAlignment
from .shift import ShiftConfig, feature_shift
from .synth import SceneClip, class_head_for

__all__ = [
    "SoftMaskSet",
    "decode_masks",
    "semantic_inference",
    "shift_with_matching",
    "run_clip",
]

_SCORE_FLOOR = np.nextafter(0.0, 1.0)
_SCORE_CEIL = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SoftMaskSet:
    """Per-query soft masks plus class logits for one frame.

    A mask is stored once per palette row of the pixel map it was decoded
    over: ``scores[:, pixels.index]`` is the (N, H, W) per-pixel mask stack.
    Scores live strictly inside (0, 1); sigmoid output is clamped to the
    nearest representable neighbours of the open interval so downstream
    consumers can rely on 0 < s < 1 even for saturated logits.
    """

    scores: np.ndarray  # (N, P)
    class_logits: np.ndarray  # (N, C)
    pixels: PixelEmbeddingMap  # P palette rows

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)
        logits = np.array(self.class_logits, dtype=np.float64)
        rows = self.pixels.palette.shape[0]
        if scores.ndim != 2 or scores.shape[1] != rows:
            raise ValueError(f"scores must be (N, P) with P = {rows}, got shape {scores.shape}")
        if logits.ndim != 2 or logits.shape[0] != scores.shape[0]:
            raise ValueError(
                f"class_logits must be (N, C) matching scores, got {logits.shape}"
            )
        if not np.all((scores > 0.0) & (scores < 1.0)):
            raise ValueError("mask scores must lie strictly inside (0, 1)")
        if not np.all(np.isfinite(logits)):
            raise ValueError("class logits must be finite")
        for arr in (scores, logits):
            arr.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "class_logits", logits)

    @property
    def n_queries(self) -> int:
        return self.scores.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_logits.shape[1]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def decode_masks(
    queries: FrameQuerySet, pixels: PixelEmbeddingMap, class_head: np.ndarray
) -> SoftMaskSet:
    """Dot every query against every palette row of ``pixels``; sigmoid to (0, 1).

    ``class_head`` is a (D, C) weight matrix mapping queries to class logits.
    The masks keep the pixel map, so a pixel's score is its palette row's
    score.
    """
    q = queries.data
    if pixels.dim != queries.dim:
        raise ValueError(
            f"channel mismatch: queries have {queries.dim}, pixels have {pixels.dim}"
        )
    raw = np.einsum("nd,pd->np", q, pixels.palette)
    scores = np.clip(_sigmoid(raw), _SCORE_FLOOR, _SCORE_CEIL)
    head = np.asarray(class_head, dtype=np.float64)
    if head.ndim != 2 or head.shape[0] != queries.dim:
        raise ValueError(
            f"class head must be (D, C) with D = {queries.dim}, got {head.shape}"
        )
    logits = np.einsum("nd,dc->nc", q, head)
    return SoftMaskSet(scores=scores, class_logits=logits, pixels=pixels)


def semantic_inference(masks: SoftMaskSet) -> LabelMap:
    """Fuse soft masks into one label map.

    Each pixel takes the class maximising sum_i softmax(logits_i)[c] *
    score_i; ties resolve to the lowest class index.  The vote runs once per
    palette row and reaches the pixels through the index.
    """
    probs = _softmax_rows(masks.class_logits)
    votes = np.einsum("nc,np->cp", probs, masks.scores)
    return LabelMap(np.argmax(votes, axis=0)[masks.pixels.index], masks.num_classes)


def shift_with_matching(
    clip: ClipQueryTensor, shift: ShiftConfig, alignment: ClipAlignment
) -> ClipQueryTensor:
    """Shift in the aligned index space, then restore each frame's query order.

    The result lists every frame's queries in their ORIGINAL order.  With the
    identity alignment it equals ``feature_shift(clip, shift)`` exactly.
    """
    if alignment.per_frame.shape != (clip.t_len, clip.n_queries):
        raise ValueError(
            f"alignment shape {alignment.per_frame.shape} does not match the clip's "
            f"{(clip.t_len, clip.n_queries)}"
        )
    # idx[t, i, 0]: the track-space slot of frame t's query i
    idx = alignment.per_frame[:, :, None]
    aligned = np.empty_like(clip.data)
    np.put_along_axis(aligned, idx, clip.data, axis=1)
    shifted = feature_shift(ClipQueryTensor(aligned), shift)
    return ClipQueryTensor(np.take_along_axis(shifted.data, idx, axis=1))


def run_clip(
    scene: SceneClip,
    shift: ShiftConfig,
    alignment: ClipAlignment,
    class_head: np.ndarray | None = None,
) -> tuple[LabelMap, ...]:
    """Process a scene end to end and return per-frame predicted labels.

    ``class_head`` defaults to the head derived from the scene's prototypes.
    """
    head = class_head_for(scene) if class_head is None else class_head
    shifted = shift_with_matching(scene.queries, shift, alignment)
    return tuple(
        semantic_inference(decode_masks(queries, pixels, head))
        for queries, pixels in zip(shifted.frames, scene.pixels)
    )
