"""Temporal channel shift for clip query tensors, along the cross-frame matches.

Out of each D-channel query vector, the first ``d_forward`` channels are
shifted forward in time, as many of the last channels backward, and the
middle band is copied through untouched.  Query i of frame t sends its
forward band to query ``adjacent[t, i]`` of frame t+1, the query the
alignment matched it to, and takes that query's backward band in return.
Under ``ClipAlignment.identity`` this is the plain shift by query index.

Boundary cells (the forward band of the first frame, the backward band of the
last) have no source frame.  Two policies are supported:

* ``"zero"`` -- boundary cells become 0.0 (the default).
* ``"hold"`` -- boundary cells keep their input values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ClipQueryTensor, json_value
from .matching import ClipAlignment

__all__ = ["ShiftConfig", "feature_shift"]

_FRACTION_LIMIT = 1000  # characters of a fraction's text, and its |decimal exponent|


@dataclass(frozen=True)
class ShiftConfig:
    """The two settings of a shift: the fraction of channels it moves and its boundary.

    ``fraction`` is a ``Fraction``, an int, a float or a string such as
    ``"1/8"``, read by its text, so the float 0.3 is 3/10; it is stored as a
    ``Fraction`` in [0, 1/2].  ``boundary`` is the string ``"zero"`` or
    ``"hold"``.  The channel counts come from the clip's D: the budget
    ``floor(fraction * D)`` is rounded down to an even number and split
    half/half, so ``d_forward(D) == floor(fraction * D) // 2`` channels go
    each way.  E.g. fraction 1/128 at D 256 gives one channel each way, and
    any fraction below 2/D degenerates to a no-op shift.
    """

    fraction: Fraction
    boundary: str = "zero"

    def __post_init__(self):
        text = str(self.fraction)
        # Fraction computes 10**exponent; the limit keeps that fast and every
        # accepted value printable (Python prints ints of up to 4,300 digits)
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", text, re.IGNORECASE)
        if len(text) > _FRACTION_LIMIT or (exponent and abs(int(exponent[1])) > _FRACTION_LIMIT):
            raise ValueError(
                f"bad shift fraction {text[:40]!r}: over {_FRACTION_LIMIT} characters "
                f"or a decimal exponent beyond ±{_FRACTION_LIMIT}"
            )
        try:
            fraction = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad shift fraction {self.fraction!r}: {exc}") from None
        if not 0 <= fraction <= Fraction(1, 2):
            raise ValueError(f"shift fraction must lie in [0, 1/2], got {fraction}")
        if self.boundary not in ("zero", "hold"):
            raise ValueError(f"boundary must be 'zero' or 'hold', got {self.boundary!r}")
        json_value("boundary", self.boundary, str)  # and not a str subclass equal to one
        object.__setattr__(self, "fraction", fraction)

    def d_forward(self, dim: int) -> int:
        """The channels shifted each way out of ``dim``, an int >= 1."""
        if json_value("dim", dim, int) < 1:
            raise ValueError("dim must be >= 1")
        return int(self.fraction * dim) // 2  # exact rational floor, then halve


def feature_shift(
    clip: ClipQueryTensor, config: ShiftConfig, alignment: ClipAlignment
) -> ClipQueryTensor:
    """Shift a clip's channels along ``alignment``'s matches; frames keep their query order.

    Pure: the input tensor is untouched.  A shift that moves none of the
    clip's channels returns the (immutable) input itself.
    """
    if alignment.per_frame.shape != (clip.t_len, clip.n_queries):
        raise ValueError(
            f"alignment shape {alignment.per_frame.shape} does not match the clip's "
            f"{(clip.t_len, clip.n_queries)}"
        )
    d = config.d_forward(clip.dim)  # as many channels go each way
    if d == 0:  # nothing moves, and the -0: slices below would take every channel
        return clip
    z = clip.data
    out = z.copy()
    rows, nxt = np.arange(1, clip.t_len)[:, None], alignment.adjacent
    out[rows, nxt, :d] = z[:-1, :, :d]
    out[:-1, :, -d:] = z[rows, nxt, -d:]
    if config.boundary == "zero":
        out[0, :, :d] = 0.0
        out[-1, :, -d:] = 0.0
    # "hold" keeps the copied input values in the boundary cells
    out.setflags(write=False)
    return ClipQueryTensor(out)
