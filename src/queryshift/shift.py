"""Temporal channel shift for clip query tensors.

Out of each D-channel query vector, the first ``d_forward`` channels are
shifted forward in time (frame t receives frame t-1's values), as many of the
last channels are shifted backward (frame t receives frame t+1's values), and
the middle band is copied through untouched.  The shift mixes
information between temporally adjacent queries AT THE SAME INDEX; whether
that index actually tracks the same object across frames is exactly what the
matching stage is for.

Boundary cells (the forward band of the first frame, the backward band of the
last) have no source frame.  Two policies are supported:

* ``BoundaryPolicy.ZERO_FILL`` -- boundary cells become 0.0 (the default).
* ``BoundaryPolicy.HOLD``      -- boundary cells keep their input values.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ClipQueryTensor, json_value

__all__ = ["BoundaryPolicy", "ShiftConfig", "feature_shift"]

_FRACTION_LIMIT = 1000  # characters of a fraction's text, and its |decimal exponent|


class BoundaryPolicy(enum.Enum):
    ZERO_FILL = "zero"
    HOLD = "hold"


@dataclass(frozen=True)
class ShiftConfig:
    """Validated shift plan for a fixed channel count.

    ``fraction`` is a ``Fraction``, an int, a float or a string such as
    ``"1/8"``, read by its text, so the float 0.3 is 3/10; it is stored as a
    ``Fraction`` in [0, 1/2].  ``dim`` is an int >= 1 and ``boundary`` a
    ``BoundaryPolicy`` or its value, ``"zero"`` or ``"hold"``.  The channel
    counts are derived from the fraction: the budget ``floor(fraction * dim)``
    is rounded down to an even number and split half/half, so
    ``d_forward == floor(fraction * dim) // 2`` channels go each way.  E.g.
    fraction 1/128 at dim 256 gives one channel each way, and any fraction
    below 2/dim degenerates to a no-op shift.
    """

    fraction: Fraction
    dim: int
    boundary: BoundaryPolicy = BoundaryPolicy.ZERO_FILL

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
        if json_value("dim", self.dim, int) < 1:
            raise ValueError("dim must be >= 1")
        try:
            boundary = BoundaryPolicy(self.boundary)
        except ValueError:
            raise ValueError(f"boundary must be 'zero' or 'hold', got {self.boundary!r}") from None
        object.__setattr__(self, "fraction", fraction)
        object.__setattr__(self, "boundary", boundary)

    @property
    def d_forward(self) -> int:
        return int(self.fraction * self.dim) // 2  # exact rational floor, then halve

    @property
    def channels_shifted(self) -> int:
        return 2 * self.d_forward


def feature_shift(clip: ClipQueryTensor, config: ShiftConfig) -> ClipQueryTensor:
    """Apply the temporal shift to every query index of a clip.

    Pure: the input tensor is untouched.  A plan that shifts no channels
    returns the (immutable) input itself.
    """
    if config.dim != clip.dim:
        raise ValueError(
            f"shift was planned for dim {config.dim}, clip has dim {clip.dim}"
        )
    d = config.d_forward  # as many channels go each way
    if d == 0:
        return clip
    z = clip.data
    out = z.copy()
    out[1:, :, :d] = z[:-1, :, :d]
    out[:-1, :, -d:] = z[1:, :, -d:]
    if config.boundary is BoundaryPolicy.ZERO_FILL:
        out[0, :, :d] = 0.0
        out[-1, :, -d:] = 0.0
    # HOLD keeps the copied input values in the boundary cells
    out.setflags(write=False)
    return ClipQueryTensor(out)
