"""Cross-frame query matching.

A query decoder gives no guarantee that query index i refers to the same
object in consecutive frames.  Before channels are shifted along the time
axis, each frame's queries are therefore matched to the next frame's by
maximising total cosine similarity over all one-to-one assignments.  The
per-pair matches are composed into a clip-wide alignment anchored at frame 0,
which places every query of every frame into a common "track" index space.

The assignment is solved exactly with an O(N^3) shortest-augmenting-path
Hungarian method on the cost matrix ``1 - sim``.  When several assignments
tie (up to a small numerical tolerance), the lexicographically smallest
mapping wins.
"""

from __future__ import annotations

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
    na = np.linalg.norm(a.data, axis=1)
    nb = np.linalg.norm(b.data, axis=1)
    za = na == 0.0
    zb = nb == 0.0
    ua = a.data / np.where(za, 1.0, na)[:, None]
    ub = b.data / np.where(zb, 1.0, nb)[:, None]
    sims = ua @ ub.T
    sims[za, :] = 0.0
    sims[:, zb] = 0.0
    np.clip(sims, -1.0, 1.0, out=sims)
    sims.setflags(write=False)
    return sims


def _solve_min_cost(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Shortest-augmenting-path Hungarian on a square cost matrix.

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


def _matched(sim: np.ndarray, mapping) -> tuple[np.ndarray, float]:
    """``mapping`` as a read-only intp array, and the similarity it achieves."""
    arr = np.array(mapping, dtype=np.intp)
    arr.setflags(write=False)
    return arr, float(sum(sim[i, arr[i]] for i in range(len(arr))))


def optimal_match(sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Assignment maximising total similarity; ties break to the smallest mapping.

    ``sim`` is an (N, N) array of finite similarities in [-1, 1].  Returns the
    (N,) mapping (row i is matched to column ``mapping[i]``) and its total
    similarity.  Internally minimises ``1 - sim`` with a Hungarian
    solver, then uses the optimal potentials to enumerate the tight graph
    (cells whose reduced cost is within 1e-9 of zero); every optimal
    assignment lives in that graph, and the lexicographically smallest perfect
    matching in it is returned.  Ties that differ by less than the tolerance
    resolve the same way.
    """
    sim = _checked_similarity(sim)
    cost = 1.0 - sim
    n = sim.shape[0]
    assignment, u, v = _solve_min_cost(cost)
    reduced = cost - u[:, None] - v[None, :]
    tight = [list(np.flatnonzero(reduced[i] <= _TIGHT_TOL)) for i in range(n)]
    return _matched(sim, _lex_smallest_tight_matching(tight, list(assignment)))


def _permutation_rows(what: str, rows, t_len: int, n: int) -> np.ndarray:
    """``rows`` as a read-only (t_len, n) intp array whose rows permute 0..n-1.

    ``rows`` is an integer array or nested lists of ints (parsed JSON); a
    ragged row, a float or a bool array is an error, never truncated.
    """
    try:
        arr = np.array(rows)
    except ValueError:  # ragged rows
        arr = np.array(None)
    if arr.size == 0:  # an empty list has no integer dtype of its own
        arr = arr.astype(np.intp).reshape(-1, n)
    if arr.shape != (t_len, n) or arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be {t_len} rows of {n} integers")
    if not np.array_equal(np.sort(arr, axis=1), np.broadcast_to(np.arange(n), arr.shape)):
        raise ValueError(f"{what}: every row must permute 0..{n - 1}")
    arr = arr.astype(np.intp, copy=False)
    arr.setflags(write=False)
    return arr


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
        per_frame = _permutation_rows("per_frame", self.per_frame, t_len, n)
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
