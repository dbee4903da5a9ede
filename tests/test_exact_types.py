"""Exact scalar types at the public entry points.

Each case hands one entry point a wrong-typed scalar (a float, bool, str or
None) in one argument, the others well-formed, and expects a ``ValueError``
naming that argument: not a ``TypeError`` or ``IndexError`` from deep inside,
and not a value silently coerced (``gauss_vector(2.5)`` drawing 2 values).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from queryshift.matching import ClipAlignment
from queryshift.metrics import evaluate_clip
from queryshift.rng import Rng
from queryshift.shift import ShiftConfig

# each entry point and well-formed keyword arguments for it
ENTRY_POINTS = {
    "ShiftConfig": (  # a shift's two settings, and the clip dim it plans for
        lambda fraction, boundary, dim: ShiftConfig(fraction, boundary).d_forward(dim),
        {"fraction": Fraction(1, 4), "boundary": "zero", "dim": 8},
    ),
    "Rng": (Rng, {"seed": 1}),
    "Rng.below": (lambda n: Rng(1).below(n), {"n": 2}),
    "Rng.gauss_vector": (lambda n: Rng(1).gauss_vector(n), {"n": 2}),
    "evaluate_clip": (
        evaluate_clip,
        {
            "gt_labels": np.zeros((2, 2, 2), np.uint8),
            "rows": np.zeros((2, 2, 2), np.intp),
            "num_classes": 2,
            "classes": np.zeros((1, 1), np.intp),
        },
    ),
    "ClipAlignment": (ClipAlignment, {"per_frame": [[0, 1], [1, 0]], "pair_totals": (1.0,)}),
    "ClipAlignment.identity": (ClipAlignment.identity, {"t_len": 2, "n": 3}),
}

# (entry point, argument, wrong-typed value)
CASES = [
    *(("ShiftConfig", "fraction", v) for v in (False, "one half", None)),
    *(("ShiftConfig", "dim", v) for v in (64.5, 64.0, True, "8", None)),
    *(("ShiftConfig", "boundary", v) for v in (1.5, True, None)),
    *(("Rng", "seed", v) for v in (1.5, True, "1", None)),
    *(("Rng.below", "n", v) for v in (2.5, True, "2", None)),
    *(("Rng.gauss_vector", "n", v) for v in (2.5, True, "2", None)),
    *(("evaluate_clip", "num_classes", v) for v in (2.5, 2.0, True, "2", None)),
    *(("ClipAlignment", "pair_totals", v) for v in (None, 1.0, ("1.0",), (True,), (None,))),
    *(("ClipAlignment.identity", arg, v) for arg in ("t_len", "n") for v in (2.5, True)),
]


@pytest.mark.parametrize("entry, arg, value", CASES, ids=[f"{e}-{a}-{v!r}" for e, a, v in CASES])
def test_wrong_typed_scalar_is_a_value_error_naming_it(entry, arg, value):
    call, kwargs = ENTRY_POINTS[entry]
    call(**kwargs)  # well-formed, so the failure below is the replaced argument's
    with pytest.raises(ValueError, match=rf"\b{arg}\b"):
        call(**kwargs | {arg: value})
