"""Slow reference implementations the tests compare the library against."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from queryshift.core import ClipQueryTensor, PixelEmbeddingMap, read_tensor
from queryshift.matching import ClipAlignment, _checked_similarity, _matched, _unit_rows
from queryshift.pipeline import decode_masks, semantic_inference
from queryshift.rng import Rng
from queryshift.shift import ShiftConfig, feature_shift
from queryshift.synth import (
    _HEAD_PEAK_LOGIT,
    _SIGMOID_1,
    InfeasibleSceneError,
    SceneClip,
    SceneSpec,
    class_head_for,
    load_scene,
)

_BRUTE_FORCE_LIMIT = 9


@functools.lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def brute_force_match(sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive reference matcher for N <= 9.

    Walks permutations in lexicographic order keeping the first strict
    maximum, which implements the same smallest-mapping tie rule as
    ``optimal_match``.
    """
    sim = _checked_similarity(sim)
    n = sim.shape[0]
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force matching is capped at N <= {_BRUTE_FORCE_LIMIT}, got {n}")
    perms = _perm_table(n)
    totals = sim[np.arange(n), perms].sum(axis=1)
    return _matched(sim, perms[int(np.argmax(totals))])  # first occurrence wins on ties


def pairwise_cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of two (N, D) query sets, one frame pair per call.

    The body ``matching.cosine_similarity`` had before it took a whole clip:
    entry (i, j) compares row i of ``a`` with row j of ``b``, a zero-norm row's
    row/column is 0, and the result is clipped to [-1, 1].
    """
    (ua, za), (ub, zb) = _unit_rows(a), _unit_rows(b)
    sims = ua @ ub.T
    sims[za, :] = 0.0
    sims[:, zb] = 0.0
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function by sign, one gather and scatter per side.

    The body ``pipeline._sigmoid`` had before its one-pass form.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def numpy_solve_min_cost(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Shortest-augmenting-path Hungarian on a square cost array, one numpy pass per step.

    The reference for ``matching._solve_min_cost``, which runs the same IEEE
    operations in the same order over Python floats: (cost - u) - v on each
    free column, the first least free column, then the u/v/minv updates.
    Returns (row -> col assignment, row potentials u, col potentials v) with
    complementary slackness: matched cells have reduced cost ~0 and all cells
    have reduced cost >= -epsilon.
    """
    n = cost.shape[0]
    inf = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_col = np.zeros(n + 1, dtype=np.int64)  # col j (1-based) -> row (1-based), 0 = free
    way = np.zeros(n + 1, dtype=np.int64)
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = cost
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            cur = padded[i0, 1:] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            free_idx = np.flatnonzero(free) + 1
            j1 = free_idx[np.argmin(minv[free_idx])]
            delta = minv[j1]
            u[match_col[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[match_col[j] - 1] = j - 1
    return assignment, u[1:], v[1:]


def recursive_lex_smallest_tight_matching(
    tight: list[list[int]], row_to_col: list[int]
) -> list[int]:
    """The lex-smallest pass with one recursive call per augmenting step.

    The reference for ``matching._lex_smallest_tight_matching``: a cycle of
    near-ties N long recurses N deep, so it only reaches moderate N.
    """
    n = len(row_to_col)
    row_to_col = list(row_to_col)
    col_to_row = [0] * n
    for i, j in enumerate(row_to_col):
        col_to_row[j] = i
    fixed_col = [False] * n

    def try_augment(row: int, banned_col: int, visited: list[bool]) -> bool:
        for j in tight[row]:
            if j == banned_col or fixed_col[j] or visited[j]:
                continue
            visited[j] = True
            holder = col_to_row[j]
            if holder == -1 or try_augment(holder, banned_col, visited):
                row_to_col[row] = j
                col_to_row[j] = row
                return True
        return False

    for i in range(n):
        current = row_to_col[i]
        for j in tight[i]:
            if fixed_col[j]:
                continue
            if j == current:
                break
            displaced = col_to_row[j]
            # tentatively give column j to row i, then re-home the displaced row
            col_to_row[current] = -1
            row_to_col[i] = j
            col_to_row[j] = i
            visited = [False] * n
            visited[j] = True
            if try_augment(displaced, -1, visited):
                break
            # infeasible: undo
            row_to_col[displaced] = j
            col_to_row[j] = displaced
            row_to_col[i] = current
            col_to_row[current] = i
        fixed_col[row_to_col[i]] = True
    return row_to_col


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
    """Mean IoU of one (C, C) confusion matrix over classes present in gt or prediction.

    The per-matrix reference for ``evaluate_clip``'s one pass over all cells.
    """
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


def accumulate(counts: np.ndarray, pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """A new (C, C) int64 array: ``counts`` [gt, pred] plus one frame's class grids."""
    counts = _checked_counts(counts)
    pred, gt = np.asarray(pred, dtype=np.int64), np.asarray(gt, dtype=np.int64)
    if gt.shape != pred.shape:
        raise ValueError(f"label shape mismatch: {gt.shape} vs {pred.shape}")
    c = counts.shape[0]
    if min(gt.min(), pred.min()) < 0 or max(gt.max(), pred.max()) >= c:
        raise ValueError("class count mismatch between labels and confusion counts")
    joint = gt.reshape(-1) * c + pred.reshape(-1)
    added = np.bincount(joint, minlength=c * c).reshape(c, c)
    added += counts
    return added


def temporal_consistency(preds: Sequence[np.ndarray], static: np.ndarray) -> float:
    """Label-stability rate on static pixels across consecutive frames.

    ``static`` is one (H, W) mask.  Each static pixel counts once per
    transition t -> t+1, as consistent if its predicted label is equal in
    both frames.
    """
    if len(preds) < 2:
        raise ValueError("temporal consistency needs at least two frames")
    static = np.asarray(static, dtype=bool)
    shapes = {np.shape(pred) for pred in preds}
    if shapes != {static.shape}:
        raise ValueError(f"static mask shape {static.shape} != label shape(s) {sorted(shapes)}")
    total = int(static.sum()) * (len(preds) - 1)
    if total == 0:
        raise ValueError("temporal consistency undefined: no static pixel pairs")
    same = sum(int(((a == b) & static).sum()) for a, b in zip(preds, preds[1:]))
    return same / total


def shift_one(clip: ClipQueryTensor, shift: ShiftConfig, alignment: ClipAlignment) -> np.ndarray:
    """One shift in the aligned index space, scattered in and gathered out per axis: (T, N, D)."""
    if alignment.per_frame.shape != (clip.t_len, clip.n_queries):
        raise ValueError(
            f"alignment shape {alignment.per_frame.shape} does not match the clip's "
            f"{(clip.t_len, clip.n_queries)}"
        )
    idx = alignment.per_frame[:, :, None]  # idx[t, i, 0]: the track slot of frame t's query i
    aligned = np.empty_like(clip.data)
    np.put_along_axis(aligned, idx, clip.data, axis=1)
    shifted = feature_shift(ClipQueryTensor(aligned), shift)
    return np.take_along_axis(shifted.data, idx, axis=1)


def evaluate_one(tally: tuple, row_labels: Sequence[np.ndarray]) -> dict[str, float | None]:
    """``evaluate_clip`` of one cell, with its own bincount and its own compare.

    ``tally`` is ``per_frame_tally_clip``'s tuple.
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
    joint = np.bincount(classes * c + flat[rows], pixels, c * c).astype(np.int64).reshape(c, c)
    a, b, kept = pairs
    same = int(kept[flat[a] == flat[b]].sum())
    tc = same / (static * (len(used) - 1)) if len(used) > 1 and static else None
    return {
        "miou": miou(joint), "pixel_accuracy": pixel_accuracy(joint), "temporal_consistency": tc
    }


def per_frame_tally_clip(gt_labels: np.ndarray, indexes: Sequence[np.ndarray], num_classes: int):
    """A clip's counts, as ``evaluate_clip`` makes them, with one ``np.unique`` per frame and pair.

    Valid input only.  Returns ``(num_classes, used, static, counts, pairs)``:
    ``used[t]`` is one past frame t's largest row, ``static`` the number of
    pixels whose gt class never changes, and the read-only int64 columns
    are (clip row, gt class, pixels) in ``counts`` and (clip row, row in
    the next frame, static pixels) in ``pairs``.  Frame t's row r is clip
    row ``sum(used[:t]) + r``.
    """
    gt, c, grids = np.asarray(gt_labels), num_classes, [np.asarray(index) for index in indexes]
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


def per_frame_run_clip(scene, cells) -> tuple[tuple[np.ndarray, ...], ...]:
    """``run_clip`` one cell and one frame at a time: each shifted frame decoded and voted alone.

    Per ``(shift, alignment)`` cell, each frame's class per palette row.
    """
    head = class_head_for(scene)
    return tuple(
        tuple(
            semantic_inference(*decode_masks(ClipQueryTensor(shifted[t : t + 1]), pixels, head))
            for shifted in [shift_one(scene.queries, shift, alignment)]
            for t, pixels in enumerate(scene.pixels)
        )
        for shift, alignment in cells
    )


def identity_palette_scene(scene_dir):
    """``load_scene(scene_dir)`` with one palette row per pixel: frame t's rows of pixels.qtn."""
    scene = load_scene(scene_dir)
    h, w = scene.spec.grid
    index = np.arange(h * w).reshape(h, w)
    flat = read_tensor(Path(scene_dir) / "pixels.qtn")
    return dataclasses.replace(
        scene, pixels=tuple(PixelEmbeddingMap(rows, index) for rows in flat.data)
    )


def _same_json(a, b) -> bool:
    """Whether two parsed JSON values are equal with exact types: 1 is not 1.0, true or -0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b and (type(a) is not float or math.copysign(1.0, a) == math.copysign(1.0, b))


class ScalarGauss:
    """Box-Muller one draw at a time over ``rng.next_u64``: the reference for ``gauss_vector``.

    Each pair of uniforms gives ``r*cos(theta)``, returned at once, and
    ``r*sin(theta)``, cached and returned by the next call.  The oracle keeps
    its own cache, so it must be the only gaussian source drawing from ``rng``.
    """

    def __init__(self, rng: Rng):
        self.rng = rng
        self.spare: float | None = None

    def gauss(self) -> float:
        spare = self.spare
        if spare is not None:
            self.spare = None
            return spare
        u1 = ((self.rng.next_u64() >> 11) + 1) * (2.0 ** -53)  # (0, 1]
        u2 = (self.rng.next_u64() >> 11) * (2.0 ** -53)
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self.spare = r * math.sin(theta)
        return r * math.cos(theta)


# ---------------------------------------------------------------------------
# the prototype build in plain Python floats, one float at a time: the
# reference for synth's array build, which must give the same bits
# ---------------------------------------------------------------------------


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _orthonormal_rows(rows: list[list[float]]) -> list[list[float]]:
    """Modified Gram-Schmidt, plain Python for a platform-fixed op order."""
    out: list[list[float]] = []
    for row in rows:
        v = list(row)
        for u in out:
            c = _dot(v, u)
            for i in range(len(v)):
                v[i] -= c * u[i]
        norm = math.sqrt(_dot(v, v))
        if norm < 1e-12:
            raise InfeasibleSceneError("degenerate Gaussian draw during orthonormalisation")
        out.append([x / norm for x in v])
    return out


def _cholesky_lower(g: list[list[float]]) -> list[list[float]]:
    n = len(g)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = g[i][j]
            for t in range(j):
                s -= low[i][t] * low[j][t]
            if i == j:
                if s <= 0.0:
                    raise InfeasibleSceneError("signature Gram correction lost rank")
                low[i][j] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return low


def _signature_angles(k: int) -> list[float]:
    return [2.0 * math.pi * i / k for i in range(k)]


def _build_prototypes(rng: Rng, spec: SceneSpec) -> tuple[list[list[float]], list[float] | None]:
    """Draw and assemble prototypes; see the ``queryshift.synth`` docstring for layout."""
    n_tracks, dim, rho = spec.n_tracks, spec.dim, spec.signature_scale
    want_no_object = spec.n_queries > n_tracks
    k_total = n_tracks + want_no_object
    if rho is not None:
        margin = max(1, dim // 8)
        core_width = dim - 2 * margin
        raw = [rng.gauss_vector(core_width).tolist() for _ in range(k_total)]
        basis = _orthonormal_rows(raw)
        angles = _signature_angles(n_tracks)
        sig = [(rho * math.cos(a), rho * math.sin(a)) for a in angles]
        gram = [
            [
                (1.0 if i == j else 0.0) - (sig[i][0] * sig[j][0] + sig[i][1] * sig[j][1])
                for j in range(n_tracks)
            ]
            for i in range(n_tracks)
        ]
        low = _cholesky_lower(gram)
        protos: list[list[float]] = []
        for k in range(n_tracks):
            p = [0.0] * dim
            p[0] = sig[k][0]
            p[dim - 1] = sig[k][1]
            for j in range(k + 1):
                c = low[k][j]
                if c != 0.0:
                    row = basis[j]
                    for i in range(core_width):
                        p[margin + i] += c * row[i]
            protos.append(p)
        no_obj = None
        if want_no_object:
            no_obj = [0.0] * dim
            no_obj[margin : margin + core_width] = basis[n_tracks]
        return protos, no_obj
    # low-dimensional fallback: plain orthonormalised Gaussians
    raw = [rng.gauss_vector(dim).tolist() for _ in range(k_total)]
    basis = _orthonormal_rows(raw)
    protos = basis[:n_tracks]
    no_obj = basis[n_tracks] if want_no_object else None
    return protos, no_obj


# ---------------------------------------------------------------------------
# the scene as first built, from a tuple of what the spec fixes: the reference
# for synth.generate_scene, which must give the same bits
# ---------------------------------------------------------------------------

# movement directions cycled over tracks; multiplied by spec.motion
_DIRS = ((0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1), (1, -1), (-1, 1))


def seeded_prefix(spec: SceneSpec):
    """Steps 1-3 of the ``queryshift.synth`` docstring's draw order: everything but noise.

    Returns the read-only prototypes, no-object row (or None), gt_tracks,
    (K + 1, D) palette and (T, H, W) palette index, and the Rng positioned
    for step 4's query noise.
    """
    t_len, k, n, d = spec.t_len, spec.n_tracks, spec.n_queries, spec.dim
    h, w = spec.grid
    rng = Rng(spec.seed)
    protos, no_obj = _build_prototypes(rng, spec)
    table = np.array(protos if no_obj is None else [*protos, no_obj])
    table.setflags(write=False)  # first, so its row views are read-only too
    prototypes, no_object = table[:k], (table[k] if n > k else None)
    anchors = [(rng.below(h), rng.below(w)) for _ in range(k)]
    # consecutive frames always rotate by a nonzero delta, so every
    # transition actually exercises the cross-frame disagreement the scene
    # exists to model; K = 1 has no nontrivial rotation and draws nothing
    rotations = [0] * t_len
    if spec.permute_per_frame and k >= 2:
        rotations[0] = rng.below(k)
        for t in range(1, t_len):
            rotations[t] = (rotations[t - 1] + 1 + rng.below(k - 1)) % k

    # frame t rotates the first K slots by rotations[t]; surplus slots stay put
    slots = np.arange(n, dtype=np.intp)
    gt_tracks = np.where(slots < k, (slots + np.array(rotations)[:, None]) % k, slots)

    # index[t, y, x]: palette row of a pixel, 0 for background, 1 + k for track k
    rh = max(1, h // 5)
    rw = max(1, w // 5)
    t = np.arange(t_len)[:, None]
    index = np.zeros((t_len, h, w), dtype=np.intp)
    for track in range(k):  # later tracks paint on top
        vy, vx = _DIRS[track % len(_DIRS)]
        r0, c0 = anchors[track]
        rows = (r0 + t * vy * spec.motion + np.arange(rh)) % h
        cols = (c0 + t * vx * spec.motion + np.arange(rw)) % w
        index[t[:, :, None], rows[:, :, None], cols[:, None, :]] = 1 + track
    palette = np.vstack([np.zeros(d), prototypes])
    # frozen, so every frame's map keeps these objects
    for arr in (gt_tracks, palette, index):
        arr.setflags(write=False)
    return prototypes, no_object, gt_tracks, palette, index, rng


def reference_generate_scene(spec: SceneSpec) -> SceneClip:
    """The reference for ``generate_scene``: the scene made from ``seeded_prefix``'s tuple."""
    prototypes, no_object, gt_tracks, palette, index, rng = seeded_prefix(spec)
    # row k of the table is the no-object prototype every surplus query takes
    table = prototypes if no_object is None else np.vstack([prototypes, no_object])
    frames = table[np.minimum(gt_tracks, spec.n_tracks)]
    if spec.noise_sigma > 0.0:
        # one draw, in (frame, query, channel) order
        noise = rng.gauss_vector(frames.size).reshape(frames.shape)
        with np.errstate(over="ignore"):  # an overflow is caught by the clip's finite scan
            frames = frames + spec.noise_sigma * noise
    labels = np.array([spec.num_classes - 1, *spec.track_classes], dtype=np.uint8)[index]
    labels.setflags(write=False)

    return SceneClip(
        spec=spec,
        queries=ClipQueryTensor(frames),
        pixels=tuple(PixelEmbeddingMap(palette, idx) for idx in index),
        gt_labels=labels,
        gt_tracks=gt_tracks,
        prototypes=prototypes,
        no_object=no_object,
    )


# ---------------------------------------------------------------------------
# the class head with a per-class count table and a separate loop per
# layout: the reference for synth.class_head_for, which must give the same bits
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def reference_class_head_for(scene: SceneClip) -> np.ndarray:
    """``class_head_for`` as first written; see its docstring for the design."""
    k = scene.spec.n_tracks
    c = scene.spec.num_classes
    d = scene.spec.dim
    track_classes = scene.spec.track_classes
    weights = np.zeros((d, c), dtype=np.float64)
    if c == 1:
        return weights

    if scene.spec.noise_sigma > 0.0:
        for track, cls in enumerate(track_classes):
            weights[:, cls] += _HEAD_PEAK_LOGIT * scene.prototypes[track]
        return weights

    counts: dict[int, int] = {}
    for cls in track_classes:
        counts[cls] = counts.get(cls, 0) + 1
    m_star = max(counts.values())
    lower = m_star / (k + m_star)
    upper = _SIGMOID_1 / (2.0 * _SIGMOID_1 + 0.5 * (k - 1))
    eta = 0.5 * (lower + upper) if lower < upper else 0.5 * upper

    peak = _HEAD_PEAK_LOGIT
    gamma_bg = peak + math.log(eta / (1.0 - eta))

    rho = scene.spec.signature_scale
    if rho is not None:
        angles = _signature_angles(k)
        for cls in range(c - 1):
            if cls not in counts:
                continue
            k_c = track_classes.index(cls)
            weights[0, cls] = peak / rho * math.cos(angles[k_c])
            weights[d - 1, cls] = peak / rho * math.sin(angles[k_c])
    else:
        for track, cls in enumerate(track_classes):
            weights[:, cls] += peak * scene.prototypes[track]

    proto_sum = scene.prototypes.sum(axis=0)
    gains = scene.prototypes @ proto_sum
    weights[:, c - 1] = (gamma_bg / float(gains.mean())) * proto_sum
    return weights
