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

Decode and vote pass plain arrays: ``decode_masks`` returns (T*N, P) mask
scores and (T*N, C) class logits for a clip's T*N queries, and
``semantic_inference`` votes them into a class per palette row, one call per
palette for all of ``run_clip``'s cells.  No per-pixel label map is built;
``classes[rows]`` is one when needed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ClipQueryTensor, PixelEmbeddingMap
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
    ex = np.exp(-np.abs(x))  # never overflows: exp(-x) for x >= 0, exp(x) below
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def decode_masks(
    queries: ClipQueryTensor, pixels: PixelEmbeddingMap, class_head: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dot every query of the clip against every palette row of ``pixels``; sigmoid to (0, 1).

    Returns read-only (T*N, P) ``scores``, row t*N + i for query i of frame t,
    clamped strictly inside (0, 1) even when saturated
    (``scores[:, pixels.index]`` is the per-pixel mask stack), and (T*N, C)
    ``logits`` from the (D, C) weight matrix ``class_head``.
    """
    q = queries.data.reshape(-1, queries.dim)
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
    """Fuse soft masks and class logits into a class per palette row.

    (N, P) ``scores`` and (N, C) ``logits`` give a read-only (P,) intp array;
    G groups stacked as (G, N, P) and (G, N, C) give (G, P).  Row p takes the
    class maximising sum_i softmax(logits_i)[c] * scores[i, p] within its
    group; ties resolve to the lowest class index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    if scores.ndim != 2 and not scores.ndim == logits.ndim == 3:
        raise ValueError(f"scores must be (N, P), or (G, N, P) with 3-D logits, got {scores.shape}")
    if logits.ndim != scores.ndim or logits.shape[:-1] != scores.shape[:-1]:
        raise ValueError(f"logits must be (N, C) matching scores, or (G, N, C), got {logits.shape}")
    if not (np.all(np.isfinite(scores)) and np.all(np.isfinite(logits))):
        raise ValueError("scores and logits must be finite")
    labels = np.argmax(np.einsum("...nc,...np->...cp", _softmax_rows(logits), scores), axis=-2)
    labels.setflags(write=False)
    return labels


def shift_with_matching(
    clip: ClipQueryTensor, shifts: Sequence[ShiftConfig], alignment: ClipAlignment
) -> np.ndarray:
    """Each shift in the aligned index space, then each frame's query order restored.

    Returns a read-only (S, T, N, D) array: entry s lists every frame's
    queries in their ORIGINAL order, and with the identity alignment equals
    ``feature_shift(clip, shifts[s]).data`` exactly.  The clip is permuted
    into track space once for all the shifts.
    """
    if alignment.per_frame.shape != (clip.t_len, clip.n_queries):
        raise ValueError(
            f"alignment shape {alignment.per_frame.shape} does not match the clip's "
            f"{(clip.t_len, clip.n_queries)}"
        )
    rows = np.arange(clip.t_len)[:, None]
    # track slot j of frame t holds the query i with per_frame[t, i] == j
    tracks = clip.data[rows, np.argsort(alignment.per_frame, axis=1)]
    tracks.setflags(write=False)
    tracks = ClipQueryTensor(tracks)
    out = np.empty((len(shifts),) + clip.data.shape)
    for s, shift in enumerate(shifts):
        out[s] = feature_shift(tracks, shift).data[rows, alignment.per_frame]
    out.setflags(write=False)
    return out


def run_clip(
    scene: SceneClip, shifts: Sequence[ShiftConfig], alignments: Sequence[ClipAlignment]
) -> tuple[np.ndarray, np.ndarray]:
    """Every shift under every alignment: read-only intp ``rows`` and ``classes``.

    The (T, H, W) ``rows`` number frame t's palette rows after those of the
    frames before it; with the (S, A, R) ``classes``, ``classes[s, a][rows]``
    is the per-pixel prediction of shift s under alignment a.  Each alignment
    shifts in one ``shift_with_matching`` call, into one frame-major
    (T, S, A, N, D) stack, and the frames sharing one palette object decode
    and vote together, in one ``decode_masks`` call, with the head
    ``class_head_for(scene)``.
    """
    groups: dict[int, list[int]] = {}  # palette object -> the frames using it
    for t, pixels in enumerate(scene.pixels):
        groups.setdefault(id(pixels.palette), []).append(t)
    order = [t for frames in groups.values() for t in frames]  # each group one slice
    _, n, d = scene.queries.data.shape
    grid = (len(shifts), len(alignments))
    stack = np.empty((len(order), *grid, n, d))  # each palette group one contiguous block
    for a, alignment in enumerate(alignments):
        stack[:, :, a] = shift_with_matching(scene.queries, shifts, alignment).swapaxes(0, 1)[order]
    stack.setflags(write=False)  # so each palette group's queries view it, uncopied
    head, by_frame, lo = class_head_for(scene), {}, 0  # by_frame: frame t -> (S, A, P_t)
    for frames in groups.values():
        # one frame of all the group's queries: perfbench counts decode flops by n_queries
        queries = ClipQueryTensor(stack[lo : lo + len(frames)].reshape(1, -1, d))
        lo += len(frames)
        scores, logits = decode_masks(queries, scene.pixels[frames[0]], head)
        labels = semantic_inference(*(x.reshape(-1, n, x.shape[1]) for x in (scores, logits)))
        by_frame.update(zip(frames, labels.reshape(len(frames), *grid, -1)))
    del stack, queries, scores, logits  # the decode arrays go before the rows grid is built
    classes = np.concatenate([by_frame[t] for t in range(len(order))], axis=-1)
    sizes = [len(p.palette) for p in scene.pixels]
    rows = np.stack([p.index for p in scene.pixels], dtype=np.intp)
    rows += (np.cumsum(sizes) - sizes)[:, None, None]
    for arr in (rows, classes):
        arr.setflags(write=False)
    return rows, classes
