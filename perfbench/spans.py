"""Outside-in span tracing of the queryshift layers.

The program is not edited: :func:`install` replaces each traced public
function with a wrapper in every loaded ``queryshift`` module that imported
it, so calls made between modules are seen as well as calls made by the
benchmark.  :func:`uninstall` puts the originals back.  Untraced runs never
call :func:`install`.

A span is ``[name, start_ns, end_ns, parent, op, work]``.  ``parent`` is the
index of the enclosing span (-1 for a root), ``op`` the operation it belongs
to, and ``work`` an exact count derived from argument or result shapes
(gauss draws, flops, bytes), or 0.  Spans stay in :class:`Recorder` memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# .qtn framing: 8-byte magic + three u32 dims + 8-byte trailer
_QTN_FRAMING = 8 + 12 + 8


def _qtn_bytes(clip) -> int:
    return _QTN_FRAMING + 8 * clip.t_len * clip.n_queries * clip.dim


def _decode_flops(args, result) -> int:
    queries, pixels = args[0], args[1]
    return 2 * queries.n_queries * pixels.height * pixels.width * queries.dim


# "<module>.<function>" -> work counter (args, result) -> int, or None.
# Rng.gauss_vector is a method and is traced under "rng.gauss_vector".
TRACED = {
    "rng.gauss_vector": lambda args, result: args[1],
    "synth.generate_scene": None,
    "synth.save_scene": None,
    "synth.load_scene": None,
    "synth.recovery_rate": None,
    "matching.align_clip": None,
    "matching.optimal_match": None,
    "matching.cosine_similarity": None,
    "shift.feature_shift": lambda args, result: 8 * args[0].t_len * args[0].n_queries * args[0].dim,
    "pipeline.shift_with_matching": None,
    "pipeline.run_clip": None,
    "pipeline.decode_masks": _decode_flops,
    "pipeline.semantic_inference": None,
    "metrics.evaluate_clip": None,
    "core.write_tensor": lambda args, result: _qtn_bytes(args[0]),
    "core.read_tensor": lambda args, result: _qtn_bytes(result),
    "core.write_labelmap": None,
    "core.read_labelmap": None,
    "cli.main": None,
}

ROOT_SPAN = "bench.step"


class Recorder:
    """In-memory span store for one thread of calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, work: int = 0) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        span[5] = work
        self._stack.pop()

    def add(self, spans: list[list], op_offset: int) -> None:
        """Append spans recorded in another process, renumbering parents and ops."""
        base = len(self.spans)
        for name, start, end, parent, op, work in spans:
            parent = parent + base if parent >= 0 else -1
            self.spans.append([name, start, end, parent, op + op_offset, work])

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "work")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(recorder: Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.open(name)
        work = 0
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                work = count(args, result)
            return result
        finally:
            recorder.close(idx, work)

    return traced


def _queryshift_modules():
    names = [n for n in sys.modules if n == "queryshift" or n.startswith("queryshift.")]
    return [sys.modules[n] for n in names]


def install(recorder: Recorder) -> list[tuple]:
    """Rebind every traced function at all its import sites; return the undo list."""
    undo = []
    modules = _queryshift_modules()
    for name, count in TRACED.items():
        mod_name, func = name.split(".")
        if name == "rng.gauss_vector":
            rng_cls = sys.modules["queryshift.rng"].Rng
            undo.append((rng_cls, func, rng_cls.gauss_vector))
            setattr(rng_cls, func, _wrap(recorder, name, rng_cls.gauss_vector, count))
            continue
        original = getattr(sys.modules[f"queryshift.{mod_name}"], func)
        wrapper = _wrap(recorder, name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover, in ns.

    Spans come from one thread, so children of one parent never overlap and
    their durations can simply be subtracted.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def per_op(spans: list[list]) -> dict[int, dict]:
    """Per operation: traced duration and, per span name, calls, self ns and work."""
    ops: dict[int, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, op, work = span
        entry = ops.setdefault(op, {"duration_ns": 0, "names": {}})
        if parent < 0:
            entry["duration_ns"] += end - start
        stats = entry["names"].setdefault(name, [0, 0, 0])
        stats[0] += 1
        stats[1] += own
        stats[2] += work
    return ops
