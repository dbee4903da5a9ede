"""Temporal channel shift with cross-frame query matching.

Query-based video segmentation keeps a fixed-size set of query vectors per
frame.  Blending query channels across neighbouring frames (a temporal shift)
only makes sense if query index i means the same object in every frame, which
decoders do not guarantee.  This package provides the shift, the cross-frame
matcher that repairs index order first, and a synthetic evaluation pipeline
that measures what happens when the matching step is skipped.
"""

from .core import (
    ClipQueryTensor,
    FrameQuerySet,
    NonFiniteTensorError,
    PixelEmbeddingMap,
    TensorFormatError,
    TensorFrames,
    TruncatedTensorError,
    WrongMagicError,
    read_labelmap,
    read_tensor,
    write_frames,
    write_labelmap,
    write_tensor,
)
from .matching import (
    ClipAlignment,
    align_clip,
    cosine_similarity,
    optimal_match,
)
from .metrics import evaluate_clip
from .pipeline import decode_masks, run_clip, semantic_inference, shift_with_matching
from .rng import Rng
from .shift import BoundaryPolicy, ShiftConfig, feature_shift, plan_shift
from .synth import (
    InfeasibleSceneError,
    SceneClip,
    SceneSpec,
    class_head_for,
    generate_scene,
    load_scene,
    recovery_rate,
    save_scene,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPolicy",
    "ClipAlignment",
    "ClipQueryTensor",
    "FrameQuerySet",
    "InfeasibleSceneError",
    "NonFiniteTensorError",
    "PixelEmbeddingMap",
    "Rng",
    "SceneClip",
    "SceneSpec",
    "ShiftConfig",
    "TensorFormatError",
    "TensorFrames",
    "TruncatedTensorError",
    "WrongMagicError",
    "align_clip",
    "class_head_for",
    "cosine_similarity",
    "decode_masks",
    "evaluate_clip",
    "feature_shift",
    "generate_scene",
    "load_scene",
    "optimal_match",
    "plan_shift",
    "read_labelmap",
    "read_tensor",
    "recovery_rate",
    "run_clip",
    "save_scene",
    "semantic_inference",
    "shift_with_matching",
    "write_frames",
    "write_labelmap",
    "write_tensor",
    "__version__",
]
