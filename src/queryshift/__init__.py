"""Temporal channel shift with cross-frame query matching.

Query-based video segmentation keeps a fixed-size set of query vectors per
frame.  Blending query channels across neighbouring frames (a temporal shift)
only makes sense if query index i means the same object in every frame, which
decoders do not guarantee.  This package provides the shift, the cross-frame
matcher that repairs index order first, and a synthetic evaluation pipeline
that measures what happens when the matching step is skipped.
"""

# each module's __all__ is its public API, and the package re-exports all seven
from . import core, matching, metrics, pipeline, rng, shift, synth
from .core import *
from .matching import *
from .metrics import *
from .pipeline import *
from .rng import *
from .shift import *
from .synth import *

__version__ = "0.1.0"

__all__ = [
    *(name for module in (core, matching, metrics, pipeline, rng, shift, synth)
      for name in module.__all__),
    "__version__",
]
