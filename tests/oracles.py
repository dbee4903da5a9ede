"""Slow reference implementations the tests compare the library against."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from queryshift.matching import _checked_similarity, _matched

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
