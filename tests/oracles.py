"""Slow reference implementations the tests compare the library against."""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from queryshift.matching import _checked_similarity, _matched
from queryshift.metrics import _checked_counts

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
