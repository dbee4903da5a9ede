"""Core data types and on-disk formats.

Everything downstream (shifting, matching, decoding, metrics) works on the
four array types defined here.  All numeric payloads are float64 and every
wrapped array is frozen after validation, so a constructed value can be shared
freely between threads and between pipeline stages without defensive copies.
The public constructors copy, freeze and finite-scan their input once; a
clip's frames are read-only views of one array.  A pixel map is a (P, D)
palette of embeddings and an (H, W) index into it, so decoding runs once
per palette row.

On-disk formats:

``.qtn`` -- clip query tensor, little-endian binary::

    bytes 0..8    magic "QTNv0001"
    bytes 8..20   three uint32: T, N, D   (all >= 1)
    then          T*N*D float64 values, frame-major, then query, then channel
    trailing      8 bytes "QTNEND\\0\\0"

  The smallest legal file (a 1x1x1 tensor) is therefore 36 bytes.

``.pgm`` -- label maps as binary PGM (P5), maxval 255.  The pixel value IS the
  class index, which caps the usable class count at 256.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

__all__ = [
    "TensorFormatError",
    "WrongMagicError",
    "TruncatedTensorError",
    "NonFiniteTensorError",
    "FrameQuerySet",
    "ClipQueryTensor",
    "PixelEmbeddingMap",
    "LabelMap",
    "write_tensor",
    "read_tensor",
    "write_labelmap",
    "read_labelmap",
]

QTN_MAGIC = b"QTNv0001"
QTN_TRAILER = b"QTNEND\x00\x00"
_QTN_CHUNK = 1 << 21  # float64 values (16 MiB) of a .qtn payload's first read
# one PGM header token, after any whitespace and '#'-to-end-of-line comments
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")

PathOrIO = Union[str, Path, BinaryIO]


class TensorFormatError(ValueError):
    """A byte stream does not satisfy the .qtn or .pgm contract."""


class WrongMagicError(TensorFormatError):
    """Leading or trailing magic bytes are absent or wrong."""


class TruncatedTensorError(TensorFormatError):
    """The stream ended before the declared payload was complete."""


class NonFiniteTensorError(TensorFormatError):
    """A payload value is NaN or infinite."""


def _frozen_f64(data, shape_rank: int, what: str) -> np.ndarray:
    return _freeze(np.array(data, dtype=np.float64, copy=True), shape_rank, what)


def _freeze(arr: np.ndarray, shape_rank: int, what: str) -> np.ndarray:
    """Validate a float64 array no one else holds, then make it read-only in place."""
    if arr.ndim != shape_rank:
        raise ValueError(f"{what} must be {shape_rank}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteTensorError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _view(cls, **arrays: np.ndarray):
    """Wrap read-only arrays this package already validated, one per field.

    No copy and no rescan: each array must be (a slice of) one the public
    constructors would accept, already frozen; a pixel map's ``index`` must
    lie in ``[0, len(palette))``.
    """
    view = object.__new__(cls)
    for name, value in arrays.items():
        object.__setattr__(view, name, value)
    return view


@dataclass(frozen=True)
class FrameQuerySet:
    """N query vectors of one frame, as an (N, D) float64 matrix."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f64(self.data, 2, "query matrix"))

    @property
    def n_queries(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ClipQueryTensor:
    """T frames of N queries with D channels, as one (T, N, D) float64 array."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f64(self.data, 3, "clip query tensor"))

    @property
    def t_len(self) -> int:
        return self.data.shape[0]

    @property
    def n_queries(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    @property
    def frames(self) -> tuple[FrameQuerySet, ...]:
        """One read-only view per frame; no copy."""
        return tuple(_view(FrameQuerySet, data=frame) for frame in self.data)


@dataclass(frozen=True)
class PixelEmbeddingMap:
    """Per-pixel embeddings of one (H, W) frame, as a palette and an index.

    ``palette`` is a read-only (P, D) float64 table of embeddings and
    ``index`` a read-only (H, W) intp grid of palette rows: pixel (y, x)
    carries ``palette[index[y, x]]``.  A decoder works on the P rows and
    gathers per-pixel results through the index.
    """

    palette: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        palette = _frozen_f64(self.palette, 2, "pixel palette")
        index = np.asarray(self.index)
        if index.ndim != 2 or index.size == 0 or not np.issubdtype(index.dtype, np.integer):
            raise ValueError(f"index must be a non-empty 2-D integer grid, got {index.shape}")
        if index.min() < 0 or index.max() >= palette.shape[0]:
            raise ValueError(f"index values must lie in [0, {palette.shape[0]})")
        index = index.astype(np.intp)
        index.setflags(write=False)
        object.__setattr__(self, "palette", palette)
        object.__setattr__(self, "index", index)

    @property
    def height(self) -> int:
        return self.index.shape[0]

    @property
    def width(self) -> int:
        return self.index.shape[1]

    @property
    def dim(self) -> int:
        return self.palette.shape[1]


@dataclass(frozen=True)
class LabelMap:
    """Integer class labels on an (H, W) grid; values lie in [0, num_classes)."""

    labels: np.ndarray
    num_classes: int = field(default=0)

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.size == 0 or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"labels must be a non-empty 2-D integer grid, got {arr.shape}")
        arr = arr.astype(np.int64, order="C")  # the one copy
        c = int(self.num_classes)
        if c < 1:
            raise ValueError("num_classes must be >= 1")
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= c:
            raise ValueError(f"labels must lie in [0, {c}), found range [{lo}, {hi}]")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "num_classes", c)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.labels.shape[0], self.labels.shape[1])


# ---------------------------------------------------------------------------
# .qtn read/write
# ---------------------------------------------------------------------------


def _open_for(dest: PathOrIO, mode: str):
    if isinstance(dest, (str, Path)):
        return open(dest, mode), True
    return dest, False


def write_tensor(clip: ClipQueryTensor, dest: PathOrIO) -> None:
    """Serialize a clip to the .qtn layout described in the module docstring."""
    sink, owns = _open_for(dest, "wb")
    try:
        sink.write(QTN_MAGIC)
        sink.write(struct.pack("<III", clip.t_len, clip.n_queries, clip.dim))
        sink.write(np.ascontiguousarray(clip.data, dtype="<f8"))
        sink.write(QTN_TRAILER)
    finally:
        if owns:
            sink.close()


def _read_exact(src: BinaryIO, n: int, what: str) -> bytes:
    buf = src.read(n)
    if len(buf) < n:
        raise TruncatedTensorError(
            f"stream ended inside {what}: wanted {n} bytes, got {len(buf)}"
        )
    return buf


def _read_payload(f: BinaryIO, count: int) -> np.ndarray:
    """Read ``count`` float64 values into one array, doubled each time the stream fills it."""
    values = np.empty(min(count, _QTN_CHUNK), dtype="<f8")
    got = 0  # bytes
    while got < 8 * count:
        if got == values.nbytes:
            values = np.concatenate([values, np.empty_like(values[: count - values.size])])
        n = f.readinto(memoryview(values).cast("B")[got:])
        if not n:
            raise TruncatedTensorError(
                f"header declares {count} float64 values, "
                f"but the stream ends after {got} bytes"
            )
        got += n
    return values


def read_tensor(src: PathOrIO) -> ClipQueryTensor:
    """Parse a .qtn stream, validating magic, dims, payload and trailer."""
    f, owns = _open_for(src, "rb")
    try:
        magic = _read_exact(f, len(QTN_MAGIC), "leading magic")
        if magic != QTN_MAGIC:
            raise WrongMagicError(f"bad leading magic {magic!r}, expected {QTN_MAGIC!r}")
        t_len, n_q, dim = struct.unpack("<III", _read_exact(f, 12, "dimension header"))
        if min(t_len, n_q, dim) < 1:
            raise TensorFormatError(
                f"dimensions must all be >= 1, header declares ({t_len}, {n_q}, {dim})"
            )
        values = _read_payload(f, t_len * n_q * dim)
        trailer = _read_exact(f, len(QTN_TRAILER), "trailer")
        if trailer != QTN_TRAILER:
            raise WrongMagicError(f"bad trailer {trailer!r}, expected {QTN_TRAILER!r}")
        data = _freeze(values, 1, "clip query tensor").reshape(t_len, n_q, dim)
        return _view(ClipQueryTensor, data=data)
    finally:
        if owns:
            f.close()


# ---------------------------------------------------------------------------
# label maps as binary PGM (P5)
# ---------------------------------------------------------------------------


def write_labelmap(lmap: LabelMap, dest: PathOrIO) -> None:
    """Write labels as a binary PGM; pixel value == class index."""
    if lmap.num_classes > 256:
        raise ValueError("PGM label maps support at most 256 classes")
    sink, owns = _open_for(dest, "wb")
    try:
        header = f"P5\n{lmap.width} {lmap.height}\n255\n".encode("ascii")
        sink.write(header)
        sink.write(lmap.labels.astype(np.uint8))
    finally:
        if owns:
            sink.close()


def read_labelmap(src: PathOrIO, num_classes: int) -> LabelMap:
    """Read a binary PGM such as :func:`write_labelmap` writes."""
    f, owns = _open_for(src, "rb")
    try:
        data = f.read()
    finally:
        if owns:
            f.close()
    if not data.startswith(b"P5"):
        raise WrongMagicError("not a binary PGM (missing P5 magic)")
    # header = magic, width, height, maxval as whitespace-separated tokens
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        token = _PGM_TOKEN.match(data, pos)
        if not token.group(1):
            raise TruncatedTensorError("PGM header ended early")
        tokens.append(token.group(1))
        pos = token.end()
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise TensorFormatError(f"malformed PGM header tokens {tokens}") from exc
    if maxval != 255:
        raise TensorFormatError(f"expected maxval 255, got {maxval}")
    if width < 1 or height < 1:
        raise TensorFormatError(f"bad PGM size {width}x{height}")
    body = data[pos : pos + width * height]
    if len(body) < width * height:
        raise TruncatedTensorError(
            f"PGM payload holds {len(body)} bytes, needs {width * height}"
        )
    return LabelMap(np.frombuffer(body, dtype=np.uint8).reshape(height, width), num_classes)
