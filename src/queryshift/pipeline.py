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

Decode and vote pass plain arrays: ``decode_masks`` returns (N, P) mask
scores and (N, C) class logits, and ``semantic_inference`` votes them into a
class per palette row.  No per-pixel label map is built; ``rows[pixels.index]``
is one when a caller needs it.
"""

from __future__ import annotations

import numpy as np

from .core import ClipQueryTensor, FrameQuerySet, PixelEmbeddingMap
from .matching import ClipAlignment
from .shift import ShiftConfig, feature_shift
from .synth import SceneClip, class_head_for

__all__ = [
    "decode_masks",
    "semantic_inference",
    "shift_with_matching",
    "run_clip",
]

_SCORE_FLOOR = np.nextafter(0.0, 1.0)
_SCORE_CEIL = np.nextafter(1.0, 0.0)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Dot every query against every palette row of ``pixels``; sigmoid to (0, 1).

    Returns read-only (N, P) ``scores``, clamped strictly inside (0, 1) even
    when saturated (``scores[:, pixels.index]`` is the per-pixel mask stack),
    and (N, C) ``logits`` from the (D, C) weight matrix ``class_head``.
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
    for arr in (scores, logits):
        arr.setflags(write=False)
    return scores, logits


def semantic_inference(scores: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Fuse (N, P) soft masks and (N, C) class logits into a class per palette row.

    Returns a read-only (P,) intp array: row p takes the class maximising
    sum_i softmax(logits_i)[c] * scores[i, p]; ties resolve to the lowest
    class index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be (N, P), got shape {scores.shape}")
    if logits.ndim != 2 or logits.shape[0] != scores.shape[0]:
        raise ValueError(f"logits must be (N, C) matching scores, got {logits.shape}")
    if not (np.all(np.isfinite(scores)) and np.all(np.isfinite(logits))):
        raise ValueError("scores and logits must be finite")
    labels = np.argmax(np.einsum("nc,np->cp", _softmax_rows(logits), scores), axis=0)
    labels.setflags(write=False)
    return labels


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
) -> tuple[np.ndarray, ...]:
    """Process a scene end to end: a read-only (P_t,) intp class per palette row of frame t.

    ``rows[t][scene.pixels[t].index]`` is frame t's per-pixel prediction.
    ``class_head`` defaults to the head derived from the scene's prototypes.
    """
    head = class_head_for(scene) if class_head is None else class_head
    shifted = shift_with_matching(scene.queries, shift, alignment)
    return tuple(
        semantic_inference(*decode_masks(queries, pixels, head))
        for queries, pixels in zip(shifted.frames, scene.pixels)
    )
