"""Core data types and on-disk formats.

Everything downstream (shifting, matching, decoding, metrics) works on the
two float64 array types defined here; ground-truth classes are plain
read-only integer grids.  Every wrapped array is frozen after validation, so
a constructed value can be shared freely between threads and between
pipeline stages without defensive copies.  The public constructors are the
only way to make one: they always check rank, size and finiteness, and copy
an input unless it is float64 (intp for an index) and frozen, that is,
read-only down its whole ``.base`` chain.  A stage freezes what it builds to
hand it on uncopied.  A pixel map is a (P, D) palette of embeddings and an
(H, W) index into it, so decoding runs once per palette row.
``write_frames`` and ``read_tensor(src, by_frame=True)`` stream a .qtn
payload a frame at a time through one buffer; ``write_tensor`` and
``read_tensor`` move a whole clip through the same framing code.

On-disk formats:

``.qtn`` -- clip query tensor, little-endian binary::

    bytes 0..8    magic "QTNv0001"
    bytes 8..20   three uint32: T, N, D   (all >= 1)
    then          T*N*D float64 values, frame-major, then query, then channel
    trailing      8 bytes "QTNEND\\0\\0", the end of a file (a stream may go on)

  The smallest legal file (a 1x1x1 tensor) is therefore 36 bytes.

``.pgm`` -- label maps as binary PGM (P5), maxval 255.  The pixel value IS the
  class index, which caps the usable class count at 256; the payload ends it.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Union

import numpy as np

__all__ = [
    "TensorFormatError",
    "WrongMagicError",
    "TruncatedTensorError",
    "NonFiniteTensorError",
    "ClipQueryTensor",
    "PixelEmbeddingMap",
    "TensorFrames",
    "write_frames",
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


def json_value(what: str, value, *kinds: type):
    """``value`` if its exact type is one of ``kinds``; ``True`` is not an int here."""
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{what} must be of type {names}, got {value!r}")
    return value


def _frozen(arr) -> bool:
    """Whether ``arr`` and every array down its ``.base`` chain are read-only."""
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.base is None:
            return True
        arr = arr.base
    return False


def _frozen_f64(data, shape_rank: int, what: str) -> np.ndarray:
    """``data`` as a validated read-only float64 array; a frozen float64 array is kept as is."""
    arr = np.asarray(data, np.float64) if _frozen(data) else np.array(data, np.float64)
    if arr.ndim != shape_rank:
        raise ValueError(f"{what} must be {shape_rank}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteTensorError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


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
        index = index.astype(np.intp, copy=not _frozen(index))
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


# ---------------------------------------------------------------------------
# .qtn read/write
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _opened(dest: PathOrIO, mode: str) -> Iterator[BinaryIO]:
    """The file at a path, opened and closed here, or a caller's stream, left open."""
    if isinstance(dest, (str, Path)):
        with open(dest, mode) as f:
            yield f
    else:
        yield dest


def write_frames(dest: PathOrIO, shape: tuple[int, int, int], frames: Iterable) -> None:
    """Write a (T, N, D) .qtn whose payload is the values of ``frames``, T*N*D in all.

    Each item is written as it comes, so ``frames`` may refill one buffer per frame.
    ``shape`` is checked before ``dest`` is opened: three ints in [1, 2**32).
    """
    if len(shape) != 3 or not all(type(n) is int and 0 < n < 1 << 32 for n in shape):
        raise ValueError(f"shape must be three ints in [1, 2**32), got {shape!r}")
    with _opened(dest, "wb") as sink:
        sink.write(QTN_MAGIC + struct.pack("<III", *shape))
        written = 0
        for frame in frames:
            frame = np.ascontiguousarray(frame, dtype="<f8")
            written += frame.size
            sink.write(frame)
        if written != shape[0] * shape[1] * shape[2]:
            raise ValueError(f"{written} values written for a {shape} tensor")
        sink.write(QTN_TRAILER)


def write_tensor(clip: ClipQueryTensor, dest: PathOrIO) -> None:
    """Serialize a clip to the .qtn layout described in the module docstring."""
    write_frames(dest, clip.data.shape, [clip.data])


def _read_exact(src: BinaryIO, n: int, what: str) -> bytes:
    buf = src.read(n)
    if len(buf) < n:
        raise TruncatedTensorError(
            f"stream ended inside {what}: wanted {n} bytes, got {len(buf)}"
        )
    return buf


def _payload_short(total: int, got: int) -> TruncatedTensorError:
    return TruncatedTensorError(
        f"header declares {total} float64 values, but the stream ends after {got} bytes"
    )


def _read_frames(src: PathOrIO, whole: bool) -> Iterator:
    """Yield the checked (T, N, D) header, then the payload, then check the trailer.

    The payload comes one frame of N*D values at a time in one flat float64
    buffer that the next frame overwrites (with ``whole``, as one buffer of
    all T*N*D values).  A regular file opened from a path must hold the
    declared payload before the header is yielded; from a pipe or a caller's
    stream, memory follows the bytes that arrive, not the declared size.
    """
    with _opened(src, "rb") as f:
        magic = _read_exact(f, len(QTN_MAGIC), "leading magic")
        if magic != QTN_MAGIC:
            raise WrongMagicError(f"bad leading magic {magic!r}, expected {QTN_MAGIC!r}")
        shape = struct.unpack("<III", _read_exact(f, 12, "dimension header"))
        if min(shape) < 1:
            raise TensorFormatError(f"dimensions must all be >= 1, header declares {shape}")
        total = shape[0] * shape[1] * shape[2]
        if f is not src and stat.S_ISREG((st := os.fstat(f.fileno())).st_mode):
            left = st.st_size - f.tell()
            if left < 8 * total:  # before any caller sizes a buffer by the header
                raise _payload_short(total, left)
        yield shape
        count = total if whole else shape[1] * shape[2]
        values = np.empty(min(count, _QTN_CHUNK), dtype="<f8")
        for done in range(0, 8 * total, 8 * count):  # payload bytes before this read
            got = 0
            while got < 8 * count:
                if got == values.nbytes:
                    values = np.concatenate([values, np.empty_like(values[: count - values.size])])
                n = f.readinto(memoryview(values).cast("B")[got:])
                if not n:
                    raise _payload_short(total, done + got)
                got += n
            yield values
        trailer = _read_exact(f, len(QTN_TRAILER), "trailer")
        if trailer != QTN_TRAILER:
            raise WrongMagicError(f"bad trailer {trailer!r}, expected {QTN_TRAILER!r}")
        if f is not src and f.read(1):  # a caller's stream may go on to what follows
            raise TensorFormatError("bytes after the trailer")


class TensorFrames:
    """A .qtn stream read one frame at a time, as ``read_tensor(src, by_frame=True)`` gives it.

    ``shape`` (and ``t_len``, ``n_queries``, ``dim``) is the checked header.
    Iterating yields each frame's N*D values in one flat float64 buffer that
    the next frame overwrites, not finite-scanned, then checks the trailer.
    ``close`` closes a file opened from a path before the last frame.
    """

    def __init__(self, frames: Iterator):
        self._frames = frames
        self.shape = next(frames)
        self.t_len, self.n_queries, self.dim = self.shape

    def __iter__(self) -> Iterator[np.ndarray]:
        return self._frames

    def close(self) -> None:
        self._frames.close()


def read_tensor(src: PathOrIO, by_frame: bool = False):
    """Parse a .qtn stream, validating magic, dims, payload and trailer.

    Returns a :class:`ClipQueryTensor`; with ``by_frame``, a
    :class:`TensorFrames` whose header is checked and whose payload has yet
    to be read, so only one frame of values is held at a time.
    """
    frames = TensorFrames(_read_frames(src, whole=not by_frame))
    if by_frame:
        return frames
    (values,) = frames  # unpacking runs on to the trailer check
    values.setflags(write=False)  # the buffer is this call's own, so the clip keeps it
    return ClipQueryTensor(values.reshape(frames.shape))


# ---------------------------------------------------------------------------
# label maps as binary PGM (P5)
# ---------------------------------------------------------------------------


def write_labelmap(labels: np.ndarray, dest: PathOrIO) -> None:
    """Write an (H, W) grid of classes in [0, 256) as a binary PGM; pixel value == class."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.size == 0 or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be a non-empty 2-D integer grid, got {labels.shape}")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("PGM label maps hold classes in [0, 256)")
    with _opened(dest, "wb") as sink:
        sink.write(f"P5\n{labels.shape[1]} {labels.shape[0]}\n255\n".encode("ascii"))
        sink.write(np.ascontiguousarray(labels, dtype=np.uint8))


def read_labelmap(src: PathOrIO, num_classes: int) -> np.ndarray:
    """A binary PGM's pixels as a read-only (H, W) uint8 view, all in [0, num_classes)."""
    with _opened(src, "rb") as f:
        data = f.read()
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
    body = memoryview(data)[pos:]  # a view, not a copy
    if len(body) != width * height:  # the payload ends the stream
        error = TruncatedTensorError if len(body) < width * height else TensorFormatError
        raise error(f"PGM payload holds {len(body)} bytes, not {width * height}")
    labels = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    if labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes}), found {labels.max()}")
    labels.setflags(write=False)
    return labels
