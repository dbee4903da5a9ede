"""Cross-frame query matching.

A query decoder gives no guarantee that query index i refers to the same
object in consecutive frames.  Before channels are shifted along the time
axis, each frame's queries are therefore matched to the next frame's by
maximising total cosine similarity over all one-to-one assignments.  The
alignment keeps these matches, which the shift follows, and chains them into
tracks anchored at frame 0.

The assignment is solved exactly by an O(N^3) shortest-augmenting-path
Hungarian method on ``1 - sim`` over Python floats, which beats numpy calls
on rows as short as a query decoder's (up to ~100 queries).  Ties within a
small tolerance break to the lexicographically smallest mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ClipQueryTensor, json_value

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


def cosine_similarity(clip: ClipQueryTensor) -> np.ndarray:
    """Each frame's queries against the next frame's by cosine: a read-only (T-1, N, N) stack.

    Entry (t, i, j) compares query i of frame t with query j of frame t+1.  A
    zero-norm query has no direction, so its row/column is 0 by convention.
    Results are clipped to [-1, 1] to absorb last-ulp rounding.
    """
    unit, zero = _unit_rows(clip.data.reshape(-1, clip.dim))
    unit, zero = unit.reshape(clip.data.shape), zero.reshape(clip.t_len, clip.n_queries)
    sims = unit[:-1] @ unit[1:].swapaxes(1, 2)
    sims[zero[:-1]] = 0.0
    sims.swapaxes(1, 2)[zero[1:]] = 0.0
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
    """Clip-wide query correspondence: the T-1 matches between adjacent frames.

    ``adjacent[t, i]`` is the query of frame t+1 matched to query i of frame
    t, a read-only (T-1, N) intp array; ``pair_totals[t]`` is that match's
    total similarity.  ``per_frame`` chains them into tracks: frame t's query
    i sits in slot ``per_frame[t, i]`` of frame 0's index space, (T, N) intp.
    """

    adjacent: np.ndarray
    pair_totals: tuple[float, ...]
    per_frame: np.ndarray = field(init=False)

    def __post_init__(self):
        try:
            pairs, n = np.shape(self.adjacent)
        except ValueError:  # ragged, or not two-dimensional
            pairs = n = 0
        if n == 0:
            raise ValueError("adjacent must be a (T-1, N) array with N >= 1")
        totals = json_value("pair_totals", self.pair_totals, tuple, list)
        totals = tuple(float(json_value("pair_totals", x, int, float)) for x in totals)
        if len(totals) != pairs:
            raise ValueError(f"need exactly T-1 = {pairs} pair totals, got {len(totals)}")
        if not all(map(math.isfinite, totals)):
            raise ValueError(f"pair_totals must be finite, got {totals}")
        adjacent = np.array(self.adjacent)  # a copy; np.shape ruled out ragged rows
        if adjacent.dtype.kind not in "iu":
            raise ValueError(f"adjacent must be {pairs} rows of {n} integers")
        if not np.all(np.sort(adjacent, axis=1) == np.arange(n)):
            raise ValueError(f"adjacent: every row must permute 0..{n - 1}")
        adjacent = adjacent.astype(np.intp, copy=False)
        per_frame = np.empty((pairs + 1, n), dtype=np.intp)
        per_frame[0] = np.arange(n)
        for t, nxt in enumerate(adjacent):
            # query nxt[i] of frame t+1 continues query i of frame t
            per_frame[t + 1, nxt] = per_frame[t]
        for name, arr in (("adjacent", adjacent), ("per_frame", per_frame)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "pair_totals", totals)

    @classmethod
    def identity(cls, t_len: int, n: int) -> "ClipAlignment":
        t_len, n = json_value("t_len", t_len, int), json_value("n", n, int)
        for name, value in (("t_len", t_len), ("n", n)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        return cls(np.broadcast_to(np.arange(n), (t_len - 1, n)), (float(n),) * (t_len - 1))

    @property
    def t_len(self) -> int:
        return self.per_frame.shape[0]

    @property
    def n_queries(self) -> int:
        return self.per_frame.shape[1]


def align_clip(clip: ClipQueryTensor) -> ClipAlignment:
    """Match every adjacent frame pair; a single-frame clip has no pairs."""
    pairs = [optimal_match(sim) for sim in cosine_similarity(clip)]
    adjacent = np.array([m for m, _ in pairs], dtype=np.intp).reshape(len(pairs), clip.n_queries)
    return ClipAlignment(adjacent, tuple(total for _, total in pairs))
