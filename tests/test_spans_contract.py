"""The benchmark's span tracer names program functions; keep them resolvable.

``perfbench/spans.py`` wraps queryshift functions by "<module>.<function>"
name and counts decode flops from ``decode_masks`` argument shapes.  A
rename or a changed argument breaks only the benchmark, so this module reads
the tracer's source (without importing it as a package or writing bytecode
next to it) and checks both against the program.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import numpy as np

from queryshift.core import ClipQueryTensor, PixelEmbeddingMap
from queryshift.pipeline import decode_masks

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_a_queryshift_callable():
    traced = _spans().TRACED
    assert "pipeline.decode_masks" in traced
    for name in traced:
        mod_name, func = name.split(".")
        module = importlib.import_module(f"queryshift.{mod_name}")
        # Rng.gauss_vector is a method, traced under "rng.gauss_vector"
        owner = module.Rng if name == "rng.gauss_vector" else module
        assert callable(getattr(owner, func, None)), name


def test_decode_flops_count_every_query_pixel_product():
    n, (h, w), d, p = 3, (5, 7), 4, 2
    rng = np.random.default_rng(0)
    queries = ClipQueryTensor(rng.standard_normal((1, n, d)))  # one frame, as run_clip passes
    pixels = PixelEmbeddingMap(rng.standard_normal((p, d)), rng.integers(0, p, (h, w)))
    args = (queries, pixels, np.zeros((d, 2)))
    result = decode_masks(*args)
    assert _spans()._decode_flops(args, result) == 2 * n * h * w * d
