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
mapping wins; a factorial-time reference solver with the same tie rule is
kept alongside as an independent oracle for tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ClipQueryTensor, FrameQuerySet

__all__ = [
    "SimilarityMatrix",
    "Permutation",
    "ClipAlignment",
    "cosine_similarity",
    "optimal_match",
    "brute_force_match",
    "align_clip",
]

# Reduced costs this close to zero count as tight when enumerating the set of
# optimal assignments.  Cosine costs live in [0, 2], so the scale is absolute.
_TIGHT_TOL = 1e-9

_BRUTE_FORCE_LIMIT = 9


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..N-1}, stored as the image array ``mapping``."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(x) for x in self.mapping)
        n = len(m)
        if n == 0:
            raise ValueError("empty permutation")
        if sorted(m) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {m}")
        object.__setattr__(self, "mapping", m)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self o other, i.e. ``i -> self(other(i))``."""
        if len(other) != len(self):
            raise ValueError("size mismatch in permutation composition")
        return Permutation(tuple(self.mapping[j] for j in other.mapping))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.mapping))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square matrix of cosine similarities, entries in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"similarity matrix must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("similarity matrix contains non-finite values")
        if arr.min() < -1.0 or arr.max() > 1.0:
            raise ValueError("similarities must lie in [-1, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def cosine_similarity(a: FrameQuerySet, b: FrameQuerySet) -> SimilarityMatrix:
    """Pairwise cosine similarity between two frames' queries.

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
    return SimilarityMatrix(np.clip(sims, -1.0, 1.0))


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


def optimal_match(sim: SimilarityMatrix) -> tuple[Permutation, float]:
    """Assignment maximising total similarity; ties break to the smallest mapping.

    Internally minimises ``1 - sim`` with a Hungarian solver, then uses the
    optimal potentials to enumerate the tight graph (cells whose reduced cost
    is within 1e-9 of zero); every optimal assignment lives in that graph, and
    the lexicographically smallest perfect matching in it is returned.  Ties
    that differ by less than the tolerance resolve the same way.
    """
    cost = 1.0 - sim.values
    n = sim.n
    assignment, u, v = _solve_min_cost(cost)
    reduced = cost - u[:, None] - v[None, :]
    tight = [list(np.flatnonzero(reduced[i] <= _TIGHT_TOL)) for i in range(n)]
    mapping = _lex_smallest_tight_matching(tight, list(assignment))
    total = float(sum(sim.values[i, mapping[i]] for i in range(n)))
    return Permutation(tuple(mapping)), total


def brute_force_match(sim: SimilarityMatrix) -> tuple[Permutation, float]:
    """Exhaustive reference matcher for N <= 9.

    Walks permutations in lexicographic order keeping the first strict
    maximum, which implements the same smallest-mapping tie rule as
    :func:`optimal_match`.
    """
    n = sim.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force matching is capped at N <= {_BRUTE_FORCE_LIMIT}, got {n}"
        )
    perms = _perm_table(n)
    totals = sim.values[np.arange(n), perms].sum(axis=1)
    best = int(np.argmax(totals))  # first occurrence wins on ties
    mapping = tuple(int(x) for x in perms[best])
    return Permutation(mapping), float(sum(sim.values[i, mapping[i]] for i in range(n)))


_PERM_CACHE: dict[int, np.ndarray] = {}


def _perm_table(n: int) -> np.ndarray:
    table = _PERM_CACHE.get(n)
    if table is None:
        table = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        _PERM_CACHE[n] = table
    return table


@dataclass(frozen=True)
class ClipAlignment:
    """Clip-wide query correspondence, anchored at frame 0.

    ``per_frame[t]`` maps a frame-t query index to its track slot, where the
    track space is frame 0's own index space (``per_frame[0]`` is always the
    identity).  ``adjacent[t]`` is the raw frame-t -> frame-(t+1) match and
    ``pair_totals[t]`` its total similarity; they satisfy
    ``per_frame[t+1] = per_frame[t] o adjacent[t]^-1``.
    """

    per_frame: tuple[Permutation, ...]
    adjacent: tuple[Permutation, ...]
    pair_totals: tuple[float, ...]

    def __post_init__(self):
        pf = tuple(self.per_frame)
        adj = tuple(self.adjacent)
        totals = tuple(float(x) for x in self.pair_totals)
        if len(pf) < 1:
            raise ValueError("alignment needs at least one frame")
        if len(adj) != len(pf) - 1 or len(totals) != len(pf) - 1:
            raise ValueError("need exactly T-1 adjacent matches and totals")
        n = len(pf[0])
        if any(len(p) != n for p in pf) or any(len(p) != n for p in adj):
            raise ValueError("all permutations must share one size")
        if not pf[0].is_identity():
            raise ValueError("frame 0 must map to itself (anchor frame)")
        object.__setattr__(self, "per_frame", pf)
        object.__setattr__(self, "adjacent", adj)
        object.__setattr__(self, "pair_totals", totals)

    @classmethod
    def identity(cls, t_len: int, n: int) -> "ClipAlignment":
        ident = Permutation.identity(n)
        return cls(
            (ident,) * t_len,
            (ident,) * (t_len - 1),
            (float(n),) * (t_len - 1),
        )

    @property
    def t_len(self) -> int:
        return len(self.per_frame)

    @property
    def n_queries(self) -> int:
        return len(self.per_frame[0])


def align_clip(clip: ClipQueryTensor) -> ClipAlignment:
    """Match every adjacent frame pair and compose into track space.

    For a single-frame clip the alignment is the bare identity anchor.
    """
    n = clip.n_queries
    frames = clip.frames
    per_frame = [Permutation.identity(n)]
    adjacent: list[Permutation] = []
    totals: list[float] = []
    for t in range(clip.t_len - 1):
        sim = cosine_similarity(frames[t], frames[t + 1])
        match, total = optimal_match(sim)
        adjacent.append(match)
        totals.append(total)
        per_frame.append(per_frame[-1].compose(match.inverse()))
    return ClipAlignment(tuple(per_frame), tuple(adjacent), tuple(totals))
