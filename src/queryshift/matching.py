"""Cross-frame query matching.

A query decoder gives no guarantee that query index i refers to the same
object in consecutive frames.  Before channels are shifted along the time
axis, each frame's queries are therefore matched to the next frame's by
maximising total cosine similarity over all one-to-one assignments.  The
per-pair matches are composed into a clip-wide alignment anchored at frame 0,
which places every query of every frame into a common "track" index space.

The assignment is solved exactly by an O(N^3) shortest-augmenting-path
Hungarian method on ``1 - sim`` over Python floats, which beats numpy calls
on rows as short as a query decoder's (up to ~100 queries).  Ties within a
small tolerance break to the lexicographically smallest mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClipQueryTensor, FrameQuerySet

__all__ = [
    "ClipAlignment",
    "cosine_similarity",
    "optimal_match",
    "align_clip",
]

# Reduced costs this close to zero count as tight when enumerating the set of
# optimal assignments.  Cosine costs live in [0, 2], so the scale is absolute.
_TIGHT_TOL = 1e-9


def _checked_similarity(sim: np.ndarray) -> np.ndarray:
    """``sim`` as float64 if it is a non-empty square array of finite values in [-1, 1]."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1] or sim.shape[0] == 0:
        raise ValueError(f"similarity matrix must be square and non-empty, got {sim.shape}")
    if not np.all(np.isfinite(sim)):
        raise ValueError("similarity matrix contains non-finite values")
    if sim.min() < -1.0 or sim.max() > 1.0:
        raise ValueError("similarities must lie in [-1, 1]")
    return sim


def _unit_rows(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``data`` over its norm, and the mask of rows whose norm is 0.

    Each row is first scaled by the exact power of two that brings its largest
    |value| into [0.5, 1), so no squared norm overflows or underflows; such a
    scale commutes with rounding, so it changes nothing in the normal range.
    """
    scaled = np.ldexp(data, -np.frexp(np.abs(data).max(axis=1))[1][:, None])
    norm = np.linalg.norm(scaled, axis=1)
    return scaled / np.where(norm == 0.0, 1.0, norm)[:, None], norm == 0.0


def cosine_similarity(a: FrameQuerySet, b: FrameQuerySet) -> np.ndarray:
    """Pairwise cosine similarity between two frames' queries, a read-only (N, N) array.

    Entry (i, j) compares query i of ``a`` with query j of ``b``.  A
    zero-norm query has no direction, so its row/column is 0 by convention.
    Results are clipped to [-1, 1] to absorb last-ulp rounding.
    """
    if a.n_queries != b.n_queries or a.dim != b.dim:
        raise ValueError(
            f"frame shapes differ: {a.data.shape} vs {b.data.shape}"
        )
    (ua, za), (ub, zb) = _unit_rows(a.data), _unit_rows(b.data)
    sims = ua @ ub.T
    sims[za, :] = 0.0
    sims[:, zb] = 0.0
    np.clip(sims, -1.0, 1.0, out=sims)
    sims.setflags(write=False)
    return sims


def _solve_min_cost(cost: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """Shortest-augmenting-path Hungarian on a square cost matrix of Python floats.

    Returns (row -> col assignment, row potentials u, col potentials v) with
    complementary slackness: matched cells have reduced cost ~0 and all cells
    have reduced cost >= -epsilon.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    row_of = [-1] * n  # col -> row, -1 = free
    way = [-1] * n  # col -> the col before it on the path, -1 = the row being added
    for i in range(n):
        minv = [math.inf] * n
        free, used = list(range(n)), []  # free stays ascending: the first least col wins
        i0, j0 = i, -1
        while True:
            row, ui = cost[i0], u[i0]
            for j in free:
                cur = row[j] - ui - v[j]
                if cur < minv[j]:
                    minv[j], way[j] = cur, j0
            j1 = min(free, key=minv.__getitem__)
            delta = minv[j1]
            u[i] += delta
            for j in used:
                u[row_of[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(j1)
            used.append(j1)
            if row_of[j1] == -1:
                break
            i0, j0 = row_of[j1], j1
        while j1 != -1:
            j0 = way[j1]
            row_of[j1] = i if j0 == -1 else row_of[j0]
            j1 = j0
    return sorted(range(n), key=row_of.__getitem__), u, v


def _lex_smallest_tight_matching(
    tight: list[list[int]], row_to_col: list[int]
) -> list[int]:
    """Lexicographically smallest perfect matching inside the tight graph.

    ``row_to_col`` must already be a perfect matching using tight edges.  Rows
    are fixed in order; for each row the smallest feasible column is kept,
    feasibility being checked by augmenting the displaced row inside the
    not-yet-fixed remainder.
    """
    n = len(row_to_col)
    col_to_row = [0] * n
    for i, j in enumerate(row_to_col):
        col_to_row[j] = i
    fixed_col = [False] * n

    def augment(row: int, visited: list[bool]) -> bool:
        """Re-home ``row`` along a path of tight edges, depth first in column order."""
        path = [(row, iter(tight[row]))]  # each row after the first holds a column its parent wants
        while path:
            j = next((j for j in path[-1][1] if not (fixed_col[j] or visited[j])), None)
            if j is None:  # no column left for this row: its parent tries its next one
                path.pop()
            elif col_to_row[j] == -1:  # free: each row on the path takes its wanted column
                for r, _ in reversed(path):
                    row_to_col[r], col_to_row[j], j = j, r, row_to_col[r]
                return True
            else:
                visited[j] = True
                path.append((col_to_row[j], iter(tight[col_to_row[j]])))
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
            if augment(displaced, visited):
                break
            # infeasible: undo
            row_to_col[displaced] = j
            col_to_row[j] = displaced
            row_to_col[i] = current
            col_to_row[current] = i
        fixed_col[row_to_col[i]] = True
    return row_to_col


def _matched(sim: np.ndarray, mapping) -> tuple[np.ndarray, float]:
    """``mapping`` as a read-only intp array, and the similarity it achieves."""
    arr = np.array(mapping, dtype=np.intp)
    arr.setflags(write=False)
    return arr, float(sum(sim[i, arr[i]] for i in range(len(arr))))


def optimal_match(sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Assignment maximising total similarity; ties break to the smallest mapping.

    ``sim`` is an (N, N) array of finite similarities in [-1, 1].  Returns the
    (N,) mapping (row i is matched to column ``mapping[i]``) and its total
    similarity.  Internally minimises ``1 - sim`` with a Hungarian solver
    over Python floats, then uses the optimal potentials to enumerate the
    tight graph (cells whose reduced cost is within 1e-9 of zero); every
    optimal assignment lives in that graph, and the lexicographically
    smallest perfect matching in it is returned.  Ties that differ by less
    than the tolerance resolve the same way.
    """
    sim = _checked_similarity(sim)
    cost = 1.0 - sim
    assignment, u, v = _solve_min_cost(cost.tolist())
    # the tight cells in one numpy pass: a Python test per cell took 10x as long at N = 100
    rows, cols = np.nonzero(cost - np.array(u)[:, None] - np.array(v) <= _TIGHT_TOL)
    tight: list[list[int]] = [[] for _ in assignment]
    for i, j in zip(rows.tolist(), cols.tolist()):  # row-major, so each row's columns ascend
        tight[i].append(j)
    return _matched(sim, _lex_smallest_tight_matching(tight, assignment))


@dataclass(frozen=True)
class ClipAlignment:
    """Clip-wide query correspondence, anchored at frame 0.

    ``per_frame[t, i]`` is the track slot of frame t's query i, where the
    track space is frame 0's own index space (``per_frame[0]`` is always the
    identity), a read-only (T, N) intp array.  ``pair_totals[t]`` is the total
    similarity of the frame-t -> frame-(t+1) match.
    """

    per_frame: np.ndarray
    pair_totals: tuple[float, ...]

    def __post_init__(self):
        try:
            t_len, n = np.shape(self.per_frame)
        except ValueError:  # ragged, or not two-dimensional
            t_len = n = 0
        if t_len == 0 or n == 0:
            raise ValueError("per_frame must be a non-empty (T, N) array")
        totals = tuple(float(x) for x in self.pair_totals)
        if len(totals) != t_len - 1:
            raise ValueError(f"need exactly T-1 = {t_len - 1} pair totals, got {len(totals)}")
        if not all(map(math.isfinite, totals)):
            raise ValueError(f"pair_totals must be finite, got {totals}")
        per_frame = np.array(self.per_frame)  # a copy; np.shape ruled out ragged rows
        if per_frame.dtype.kind not in "iu":
            raise ValueError(f"per_frame must be {t_len} rows of {n} integers")
        if not np.all(np.sort(per_frame, axis=1) == np.arange(n)):
            raise ValueError(f"per_frame: every row must permute 0..{n - 1}")
        per_frame = per_frame.astype(np.intp, copy=False)
        per_frame.setflags(write=False)
        if not np.array_equal(per_frame[0], np.arange(n)):
            raise ValueError("frame 0 must map to itself (anchor frame)")
        object.__setattr__(self, "per_frame", per_frame)
        object.__setattr__(self, "pair_totals", totals)

    @classmethod
    def identity(cls, t_len: int, n: int) -> "ClipAlignment":
        ident = np.broadcast_to(np.arange(n), (t_len, n))
        return cls(ident, (float(n),) * (t_len - 1))

    @property
    def t_len(self) -> int:
        return self.per_frame.shape[0]

    @property
    def n_queries(self) -> int:
        return self.per_frame.shape[1]

    @property
    def adjacent(self) -> np.ndarray:
        """Read-only (T-1, N) intp matches: ``per_frame[t + 1, adjacent[t]] == per_frame[t]``."""
        pf = self.per_frame
        adjacent = np.take_along_axis(np.argsort(pf[1:], axis=1), pf[:-1], axis=1)
        adjacent.setflags(write=False)
        return adjacent


def align_clip(clip: ClipQueryTensor) -> ClipAlignment:
    """Match every adjacent frame pair and compose into track space.

    For a single-frame clip the alignment is the bare identity anchor.
    """
    n = clip.n_queries
    frames = clip.frames
    per_frame = np.empty((clip.t_len, n), dtype=np.intp)
    per_frame[0] = np.arange(n)
    totals: list[float] = []
    for t in range(clip.t_len - 1):
        adjacent, total = optimal_match(cosine_similarity(frames[t], frames[t + 1]))
        totals.append(total)
        # query adjacent[i] of frame t+1 continues query i of frame t
        per_frame[t + 1, adjacent] = per_frame[t]
    return ClipAlignment(per_frame, tuple(totals))
