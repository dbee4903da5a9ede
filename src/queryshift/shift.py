"""Temporal channel shift for clip query tensors.

Out of each D-channel query vector, the first ``d_forward`` channels are
shifted forward in time (frame t receives frame t-1's values), the last
``d_backward`` channels are shifted backward (frame t receives frame t+1's
values), and the middle band is copied through untouched.  The shift mixes
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
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

import numpy as np

from .core import ClipQueryTensor

__all__ = ["BoundaryPolicy", "ShiftConfig", "plan_shift", "feature_shift"]

FractionLike = Union[Fraction, int, float, str]


class BoundaryPolicy(enum.Enum):
    ZERO_FILL = "zero"
    HOLD = "hold"


def _as_fraction(fraction: FractionLike) -> Fraction:
    if isinstance(fraction, Fraction):
        return fraction
    if isinstance(fraction, str):
        return Fraction(fraction)
    if isinstance(fraction, (int, Rational)):
        return Fraction(fraction)
    if isinstance(fraction, float):
        return Fraction(fraction)  # exact binary value of the float
    raise TypeError(f"cannot interpret {fraction!r} as a shift fraction")


@dataclass(frozen=True)
class ShiftConfig:
    """Validated shift plan for a fixed channel count.

    ``d_forward`` and ``d_backward`` are equal by construction: the channel
    budget ``floor(fraction * dim)`` is rounded down to an even number and
    split half/half between the two directions.
    """

    fraction: Fraction
    dim: int
    d_forward: int
    d_backward: int
    boundary: BoundaryPolicy = BoundaryPolicy.ZERO_FILL

    def __post_init__(self):
        if not 0 <= self.fraction <= Fraction(1, 2):
            raise ValueError(f"shift fraction must lie in [0, 1/2], got {self.fraction}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.d_forward != self.d_backward:
            raise ValueError("forward and backward channel counts must match")
        if self.d_forward + self.d_backward > self.dim:
            raise ValueError(
                f"channel budget {self.d_forward + self.d_backward} exceeds dim {self.dim}"
            )

    @property
    def channels_shifted(self) -> int:
        return self.d_forward + self.d_backward


def plan_shift(
    fraction: FractionLike,
    dim: int,
    boundary: BoundaryPolicy = BoundaryPolicy.ZERO_FILL,
) -> ShiftConfig:
    """Derive per-direction channel counts from a shift fraction.

    budget = floor(fraction * dim), rounded down to even; each direction gets
    half.  E.g. fraction 1/128 at dim 256 gives one channel each way, and any
    fraction below 2/dim degenerates to a no-op shift.
    """
    frac = _as_fraction(fraction)
    budget = int(frac * dim)  # exact rational floor for non-negative values
    budget -= budget % 2
    half = budget // 2
    # ShiftConfig rejects a fraction outside [0, 1/2] and a dim below 1
    return ShiftConfig(frac, dim, half, half, boundary)


def feature_shift(clip: ClipQueryTensor, config: ShiftConfig) -> ClipQueryTensor:
    """Apply the temporal shift to every query index of a clip.

    Pure: the input tensor is untouched.  A plan that shifts no channels
    returns the (immutable) input itself.
    """
    if config.dim != clip.dim:
        raise ValueError(
            f"shift was planned for dim {config.dim}, clip has dim {clip.dim}"
        )
    df = config.d_forward
    db = config.d_backward
    if df == 0 and db == 0:
        return clip
    z = clip.data
    out = z.copy()
    if df:
        out[1:, :, :df] = z[:-1, :, :df]
        if config.boundary is BoundaryPolicy.ZERO_FILL:
            out[0, :, :df] = 0.0
        # HOLD keeps the copied input values in place
    if db:
        out[:-1, :, -db:] = z[1:, :, -db:]
        if config.boundary is BoundaryPolicy.ZERO_FILL:
            out[-1, :, -db:] = 0.0
    return ClipQueryTensor(out)
