"""Round-trip and failure-mode tests for the .qtn and .pgm formats."""

from __future__ import annotations

import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryshift import core
from queryshift.core import (
    ClipQueryTensor,
    FrameQuerySet,
    NonFiniteTensorError,
    PixelEmbeddingMap,
    TensorFormatError,
    TruncatedTensorError,
    WrongMagicError,
    read_labelmap,
    read_tensor,
    write_frames,
    write_labelmap,
    write_tensor,
)

MAGIC = b"QTNv0001"
TRAILER = b"QTNEND\x00\x00"


def _qtn_bytes(clip):
    buf = io.BytesIO()
    write_tensor(clip, buf)
    return buf.getvalue()


def _clip(t, n, d, seed=0):
    rng = np.random.default_rng(seed)
    return ClipQueryTensor(rng.standard_normal((t, n, d)))


class _Trickle(io.RawIOBase):
    """A non-seekable raw stream, such as a pipe, that hands out at most 3 bytes per read."""

    def __init__(self, data):
        self._rest = memoryview(data)

    def readable(self):
        return True

    def readinto(self, b):
        n = min(3, len(b), len(self._rest))
        b[:n], self._rest = self._rest[:n], self._rest[n:]
        return n


def _trickle(data):
    return io.BufferedReader(_Trickle(data))


# ---------------------------------------------------------------------------
# byte layout
# ---------------------------------------------------------------------------


def test_minimal_file_is_36_bytes():
    # magic 8 + dims 12 + one float64 8 + trailer 8
    clip = ClipQueryTensor(np.zeros((1, 1, 1)))
    data = _qtn_bytes(clip)
    assert len(data) == 36
    assert data[:8] == MAGIC
    assert struct.unpack("<III", data[8:20]) == (1, 1, 1)
    assert struct.unpack("<d", data[20:28]) == (0.0,)
    assert data[28:] == TRAILER


def test_layout_is_frame_major_little_endian():
    arr = np.arange(2 * 2 * 3, dtype=np.float64).reshape(2, 2, 3)
    data = _qtn_bytes(ClipQueryTensor(arr))
    assert struct.unpack("<III", data[8:20]) == (2, 2, 3)
    payload = np.frombuffer(data[20:-8], dtype="<f8")
    assert payload.tolist() == list(range(12))


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=128),
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_bit_exact(t, n, d, seed):
    clip = _clip(t, n, d, seed)
    back = read_tensor(io.BytesIO(_qtn_bytes(clip)))
    assert back.t_len == t and back.n_queries == n and back.dim == d
    for f_in, f_out in zip(clip.frames, back.frames):
        assert np.array_equal(
            f_in.data.view(np.uint64), f_out.data.view(np.uint64)
        )


def test_round_trip_through_file(tmp_path):
    clip = _clip(3, 4, 5, seed=1)
    path = tmp_path / "clip.qtn"
    write_tensor(clip, path)
    back = read_tensor(path)
    assert np.array_equal(back.data, clip.data)


@pytest.mark.parametrize("by_frame", [False, True], ids=["whole", "by_frame"])
def test_a_file_ends_at_its_trailer(tmp_path, by_frame):
    path = tmp_path / "clip.qtn"
    path.write_bytes(_qtn_bytes(_clip(2, 2, 3)) + b"\x00")
    with pytest.raises(TensorFormatError, match="bytes after the trailer"):
        list(read_tensor(path, by_frame=True)) if by_frame else read_tensor(path)


def test_a_caller_stream_is_left_just_after_the_trailer():
    first, second = _clip(1, 2, 3, seed=1), _clip(2, 1, 2, seed=2)
    src = io.BytesIO(_qtn_bytes(first) + _qtn_bytes(second) + b"rest")
    assert np.array_equal(read_tensor(src).data, first.data)
    assert np.array_equal(read_tensor(src).data, second.data)
    assert src.read() == b"rest"


def test_round_trip_preserves_special_values():
    arr = np.array([[[0.0, -0.0, 2.0**-1074, 1.7976931348623157e308]]])
    back = read_tensor(io.BytesIO(_qtn_bytes(ClipQueryTensor(arr))))
    assert np.array_equal(back.data.view(np.uint64), arr.view(np.uint64))


# ---------------------------------------------------------------------------
# failure modes, each with its own error type
# ---------------------------------------------------------------------------


def test_wrong_magic():
    data = b"NOTQTN01" + _qtn_bytes(_clip(1, 1, 1))[8:]
    with pytest.raises(WrongMagicError):
        read_tensor(io.BytesIO(data))


def test_empty_stream_is_truncated():
    with pytest.raises(TruncatedTensorError):
        read_tensor(io.BytesIO(b""))


def test_header_cut_short():
    data = _qtn_bytes(_clip(1, 1, 1))[:14]
    with pytest.raises(TruncatedTensorError):
        read_tensor(io.BytesIO(data))


def test_payload_one_float_short():
    # header says 2x2x2 = 8 floats, body holds 7
    body = struct.pack("<8d", *range(8))[:-8]
    data = MAGIC + struct.pack("<III", 2, 2, 2) + body + TRAILER
    with pytest.raises(TruncatedTensorError):
        read_tensor(io.BytesIO(data))


def test_oversized_header_is_truncated_before_reading():
    # 0xFFFFFFFF^3 float64 values do not even fit a read() size argument
    data = MAGIC + struct.pack("<III", *[0xFFFFFFFF] * 3) + bytes(16) + TRAILER
    with pytest.raises(TruncatedTensorError, match="header declares"):
        read_tensor(io.BytesIO(data))


@pytest.mark.parametrize("chunk", [core._QTN_CHUNK, 5], ids=["one_buffer", "grown"])
def test_trickled_clip_is_bit_identical_and_frozen(monkeypatch, chunk):
    # a 5-value first buffer is doubled 5 -> 10 -> 20 -> 40 -> 60 as the stream fills it
    monkeypatch.setattr(core, "_QTN_CHUNK", chunk)
    clip = _clip(3, 4, 5, seed=2)
    stream = _trickle(_qtn_bytes(clip))
    assert not stream.seekable()
    back = read_tensor(stream)
    assert np.array_equal(back.data.view(np.uint64), clip.data.view(np.uint64))
    assert not back.data.flags.writeable and not back.data.base.flags.writeable
    assert back.data.base.base is None  # the frozen array owns the buffer


def test_payload_cut_short_after_growing_is_truncated(monkeypatch):
    monkeypatch.setattr(core, "_QTN_CHUNK", 5)
    data = _qtn_bytes(_clip(3, 4, 5))[: 20 + 8 * 59]
    with pytest.raises(
        TruncatedTensorError, match="header declares 60 float64 values, .* after 472 bytes"
    ):
        read_tensor(_trickle(data))


def test_write_frames_from_one_refilled_buffer_gives_the_tensor_bytes():
    clip = _clip(3, 4, 5, seed=4)
    buf, out = np.empty((4, 5)), io.BytesIO()

    def refilled():
        for frame in clip.data:
            buf[...] = frame
            yield buf

    write_frames(out, (3, 4, 5), refilled())
    assert out.getvalue() == _qtn_bytes(clip)


@pytest.mark.parametrize("values", [19, 21])
def test_write_frames_rejects_a_payload_of_another_size(values):
    with pytest.raises(ValueError, match=f"{values} values written for a \\(1, 4, 5\\) tensor"):
        write_frames(io.BytesIO(), (1, 4, 5), [np.zeros(values)])


@pytest.mark.parametrize("chunk", [core._QTN_CHUNK, 5], ids=["one_buffer", "grown"])
def test_read_by_frame_gives_the_shape_then_each_frame_in_one_buffer(monkeypatch, chunk):
    monkeypatch.setattr(core, "_QTN_CHUNK", chunk)
    clip = _clip(3, 4, 5, seed=3)
    frames = read_tensor(_trickle(_qtn_bytes(clip)), by_frame=True)
    assert frames.shape == (3, 4, 5)
    assert (frames.t_len, frames.n_queries, frames.dim) == (3, 4, 5)
    buffers = []
    for want, got in zip(clip.data, frames):
        assert np.array_equal(got.reshape(4, 5).view(np.uint64), want.view(np.uint64))
        buffers.append(got)
    assert len(buffers) == 3 and all(b is buffers[0] for b in buffers)
    assert next(iter(frames), None) is None  # the trailer checked out


def test_read_by_frame_checks_the_header_at_once_and_the_trailer_after_the_last_frame():
    with pytest.raises(WrongMagicError, match="bad leading magic"):
        read_tensor(io.BytesIO(b"XXXXXXXX" + _qtn_bytes(_clip(2, 2, 3))[8:]), by_frame=True)
    frames = iter(read_tensor(io.BytesIO(_qtn_bytes(_clip(2, 2, 3))[:-8] + b"XXXXXXXX"), True))
    next(frames), next(frames)  # both frames read
    with pytest.raises(WrongMagicError, match="bad trailer"):
        next(frames)


def test_closing_a_frame_reader_closes_the_file_it_opened(tmp_path, monkeypatch):
    path = tmp_path / "clip.qtn"
    write_tensor(_clip(2, 2, 3), path)
    opened = []

    def recording_open(*args):
        opened.append(open(*args))
        return opened[-1]

    monkeypatch.setattr(core, "open", recording_open, raising=False)
    frames = read_tensor(path, by_frame=True)
    next(iter(frames))
    assert len(opened) == 1 and not opened[0].closed
    frames.close()
    assert opened[0].closed


def test_overstated_header_on_a_pipe_is_truncated_within_bounded_memory():
    # 2**25 values (256 MiB) declared, 64 bytes sent: no read may ask for them all up front
    data = MAGIC + struct.pack("<III", 2**5, 2**10, 2**10) + bytes(64)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedTensorError, match="header declares"):
            read_tensor(_trickle(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_overstated_frame_on_a_pipe_is_truncated_within_bounded_memory():
    # one frame of 2**25 values (256 MiB) declared, 64 bytes sent
    data = MAGIC + struct.pack("<III", 2, 2**15, 2**10) + bytes(64)
    tracemalloc.start()
    try:
        frames = read_tensor(_trickle(data), by_frame=True)
        with pytest.raises(TruncatedTensorError, match="header declares"):
            next(iter(frames))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_short_file_fails_before_the_header_but_a_stream_of_it_only_when_read(tmp_path):
    # a file at a path tells its size up front; the same bytes as a caller's stream do not
    path = tmp_path / "short.qtn"
    path.write_bytes(_qtn_bytes(_clip(2, 2, 3))[: 20 + 8 * 7])
    message = "header declares 12 float64 values, but the stream ends after 56 bytes"
    with pytest.raises(TruncatedTensorError, match=message):
        read_tensor(path, by_frame=True)
    with open(path, "rb") as f:
        frames = read_tensor(f, by_frame=True)
        assert frames.shape == (2, 2, 3)
        next(iter(frames))
        with pytest.raises(TruncatedTensorError, match=message):
            next(iter(frames))


def test_missing_trailer():
    data = _qtn_bytes(_clip(1, 2, 3))[:-8]
    with pytest.raises(TruncatedTensorError):
        read_tensor(io.BytesIO(data))


def test_corrupt_trailer():
    good = _qtn_bytes(_clip(1, 2, 3))
    data = good[:-8] + b"XXXXXXXX"
    with pytest.raises(WrongMagicError):
        read_tensor(io.BytesIO(data))


def test_nan_payload_rejected():
    data = MAGIC + struct.pack("<III", 1, 1, 2) + struct.pack("<2d", 1.0, float("nan")) + TRAILER
    with pytest.raises(NonFiniteTensorError):
        read_tensor(io.BytesIO(data))


def test_inf_payload_rejected():
    data = MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<d", float("inf")) + TRAILER
    with pytest.raises(NonFiniteTensorError):
        read_tensor(io.BytesIO(data))


def test_zero_dimension_rejected():
    data = MAGIC + struct.pack("<III", 1, 0, 1) + TRAILER
    with pytest.raises(TensorFormatError):
        read_tensor(io.BytesIO(data))


def test_all_failures_are_format_errors():
    for cls in (WrongMagicError, TruncatedTensorError, NonFiniteTensorError):
        assert issubclass(cls, TensorFormatError)
    assert issubclass(TensorFormatError, ValueError)


# ---------------------------------------------------------------------------
# in-memory types
# ---------------------------------------------------------------------------


def test_frames_are_frozen():
    clip = _clip(2, 3, 4)
    with pytest.raises(ValueError):
        clip.frames[0].data[0, 0] = 9.0


def _palette_map(palette):
    return PixelEmbeddingMap(palette, np.zeros((2, 3), dtype=np.intp))


@pytest.mark.parametrize(
    "make, field, shape",
    [
        (ClipQueryTensor, "data", (2, 3, 4)),
        (FrameQuerySet, "data", (3, 4)),
        (_palette_map, "palette", (3, 4)),
    ],
    ids=["clip", "frame", "pixels"],
)
def test_public_constructors_copy_freeze_and_scan(make, field, shape):
    origin = (0,) * len(shape)
    arr = np.ones(shape)
    value = make(arr)
    arr[origin] = 123.0
    assert getattr(value, field)[origin] == 1.0
    assert not getattr(value, field).flags.writeable
    # a frozen array is kept; a read-only view of a writable array is copied
    frozen = np.ones(shape)
    frozen.setflags(write=False)
    assert getattr(make(frozen), field) is frozen
    view = arr.view()
    view.setflags(write=False)
    copied = getattr(make(view), field)
    arr[origin] = 7.0
    assert copied[origin] == 123.0
    # the finite scan runs on kept arrays too
    arr[origin] = np.inf
    with pytest.raises(NonFiniteTensorError):
        make(arr)
    arr.setflags(write=False)
    with pytest.raises(NonFiniteTensorError):
        make(arr)
    if make is _palette_map:  # a pixel map's intp index follows the same rule
        index = np.zeros((2, 3), dtype=np.intp)
        copied = PixelEmbeddingMap(frozen, index).index
        index[0, 0] = 1
        assert copied[0, 0] == 0 and not copied.flags.writeable
        index.setflags(write=False)
        assert PixelEmbeddingMap(frozen, index).index is index


def test_clip_frames_are_read_only_views_of_one_array():
    clip = _clip(3, 2, 4)
    assert not clip.data.flags.writeable
    assert clip.data.shape == (clip.t_len, clip.n_queries, clip.dim) == (3, 2, 4)
    for t, frame in enumerate(clip.frames):
        assert isinstance(frame, FrameQuerySet)
        assert not frame.data.flags.writeable
        assert np.shares_memory(frame.data, clip.data)
        assert np.array_equal(frame.data, clip.data[t])


def test_clip_rejects_ragged_or_misshapen_input():
    with pytest.raises(ValueError):
        ClipQueryTensor([np.zeros((2, 3)), np.zeros((2, 4))])
    with pytest.raises(ValueError):
        ClipQueryTensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ClipQueryTensor(np.zeros((0, 2, 3)))


def test_clip_rejects_nonfinite():
    with pytest.raises(NonFiniteTensorError):
        ClipQueryTensor(np.array([[[np.nan]]]))


def test_pixel_map_dims():
    pm = PixelEmbeddingMap(np.zeros((3, 6)), np.zeros((4, 5), dtype=np.intp))
    assert (pm.height, pm.width, pm.dim) == (4, 5, 6)
    assert not hasattr(pm, "data")
    with pytest.raises(ValueError):
        PixelEmbeddingMap(np.zeros((4, 5, 6)), np.zeros((4, 5), dtype=np.intp))


def test_pixel_map_takes_identity_palette_without_copy():
    data = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    pm = PixelEmbeddingMap(data.reshape(6, 4), np.arange(6).reshape(2, 3))
    assert pm.palette.shape == (6, 4)
    assert pm.index.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert pm.index.dtype == np.intp
    assert not pm.palette.flags.writeable and not pm.index.flags.writeable
    assert np.array_equal(pm.palette[pm.index], data)
    # frozen arrays, as scenes build them, are kept as they are
    view = PixelEmbeddingMap(pm.palette, pm.index)
    assert view.palette is pm.palette and view.index is pm.index
    assert (view.height, view.width, view.dim) == (2, 3, 4)


@pytest.mark.parametrize(
    "palette, match",
    [
        (np.array([[0.0, np.nan]]), "non-finite"),
        (np.array([[np.inf, 0.0]]), "non-finite"),
        (np.zeros(2), "2-dimensional"),
        (np.zeros((1, 1, 2)), "2-dimensional"),
        (np.zeros((0, 2)), "non-empty"),
    ],
    ids=["nan", "inf", "one_dim", "three_dim", "empty"],
)
def test_pixel_map_rejects_bad_palette(palette, match):
    with pytest.raises(ValueError, match=match):
        PixelEmbeddingMap(palette, [[0]])


@pytest.mark.parametrize("dtype", [np.int32, np.intp])
def test_pixel_map_index_is_a_read_only_intp_copy(dtype):
    palette, index = np.zeros((2, 3)), np.array([[1, 0]], dtype=dtype)
    pm = PixelEmbeddingMap(palette, index)
    palette[1, 0], index[0, 0] = 5.0, 0
    assert pm.palette.tolist() == [[0.0] * 3] * 2
    assert pm.index.dtype == np.intp and pm.index.tolist() == [[1, 0]]
    assert not pm.palette.flags.writeable and not pm.index.flags.writeable


def test_labelmap_validates_range():
    bad = [
        (np.zeros((2, 2)), "integer grid"),
        (np.zeros((2, 2), dtype=bool), "integer grid"),
        (np.zeros(4, dtype=np.int64), "2-D"),
        (np.zeros((0, 3), dtype=np.int64), "non-empty"),
        (np.full((2, 2), -1), r"\[0, 256\)"),
        (np.full((2, 2), 256), r"\[0, 256\)"),
    ]
    for labels, match in bad:
        with pytest.raises(ValueError, match=match):
            write_labelmap(labels, io.BytesIO())


def test_labelmap_copies_its_input_once():
    # the one copy is the uint8 body: an eighth of an int64 grid
    grid = np.arange(1024 * 1024, dtype=np.int64).reshape(1024, 1024) % 7
    buf = io.BytesIO()
    tracemalloc.start()
    try:
        write_labelmap(grid, buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * grid.nbytes
    assert np.array_equal(read_labelmap(io.BytesIO(buf.getvalue()), 7), grid)


def test_read_labelmap_keeps_no_second_copy_of_the_body():
    # the labels are a uint8 view of the bytes read, not an int64 copy 8x the body
    grid = np.arange(2048 * 2048, dtype=np.int64).reshape(2048, 2048) % 7
    buf = io.BytesIO()
    write_labelmap(grid, buf)
    data = buf.getvalue()
    src = io.BytesIO(data)
    tracemalloc.start()
    try:
        labels = read_labelmap(src, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data)
    assert labels.dtype == np.uint8 and np.array_equal(labels, grid)


def test_labelmap_frozen():
    buf = io.BytesIO()
    write_labelmap(np.zeros((2, 2), dtype=np.int64), buf)
    labels = read_labelmap(io.BytesIO(buf.getvalue()), 2)
    with pytest.raises(ValueError):
        labels[0, 0] = 1


# ---------------------------------------------------------------------------
# PGM label maps
# ---------------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 7, size=(13, 9))
    path = tmp_path / "labels.pgm"
    write_labelmap(labels, path)
    back = read_labelmap(path, 7)
    assert np.array_equal(back, labels)
    assert back.dtype == np.uint8 and not back.flags.writeable


def test_pgm_header_shape():
    buf = io.BytesIO()
    write_labelmap(np.zeros((2, 3), dtype=np.int64), buf)
    data = buf.getvalue()
    # width before height in the header, row-major body
    assert data.startswith(b"P5\n3 2\n255\n")
    assert len(data) == len(b"P5\n3 2\n255\n") + 6


def test_pgm_bytes_are_row_major_whatever_the_input_layout():
    # a transposed (column-major) grid still writes its rows in order
    labels = np.arange(6, dtype=np.uint8).reshape(3, 2).T
    buf = io.BytesIO()
    write_labelmap(labels, buf)
    assert buf.getvalue() == b"P5\n3 2\n255\n" + bytes([0, 2, 4, 1, 3, 5])
    assert read_labelmap(io.BytesIO(buf.getvalue()), 6).tolist() == labels.tolist()


def test_pgm_wrong_magic():
    with pytest.raises(WrongMagicError):
        read_labelmap(io.BytesIO(b"P2\n2 2\n255\n"), 2)


def test_pgm_wrong_maxval():
    with pytest.raises(TensorFormatError):
        read_labelmap(io.BytesIO(b"P5\n2 2\n65535\n" + bytes(8)), 2)


def test_pgm_truncated_body():
    with pytest.raises(TruncatedTensorError):
        read_labelmap(io.BytesIO(b"P5\n4 4\n255\n" + bytes(5)), 2)


def test_pgm_ends_at_its_payload(tmp_path):
    path = tmp_path / "labels.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4) + b"\n")
    with pytest.raises(TensorFormatError, match="PGM payload holds 5 bytes, not 4") as caught:
        read_labelmap(path, 2)
    assert type(caught.value) is TensorFormatError  # not a truncation


@pytest.mark.parametrize(
    "header",
    [
        b"P5\n# written by netpbm\n2 2\n255\n",
        b"P5\n2 2\n# maxval next\n255\n",
        b"P5 # one\r\n2\t# two\n#\n2\n255\n",
    ],
    ids=["before_width", "before_maxval", "after_each_token"],
)
def test_pgm_skips_header_comments(header):
    labels = read_labelmap(io.BytesIO(header + bytes([0, 1, 1, 0])), 2)
    assert labels.tolist() == [[0, 1], [1, 0]]


def test_pgm_comment_reaching_eof_is_truncated():
    with pytest.raises(TruncatedTensorError):
        read_labelmap(io.BytesIO(b"P5\n2 2\n# maxval never comes"), 2)


def test_pgm_caps_classes_at_256():
    write_labelmap(np.array([[255]]), io.BytesIO())
    with pytest.raises(ValueError, match=r"\[0, 256\)"):
        write_labelmap(np.array([[0, 256]]), io.BytesIO())


def test_pgm_class_count_validated_on_read():
    buf = io.BytesIO()
    write_labelmap(np.full((2, 2), 5, dtype=np.int64), buf)
    buf.seek(0)
    with pytest.raises(ValueError):
        read_labelmap(buf, 4)  # stored value 5 exceeds the declared classes


# ---------------------------------------------------------------------------
# mutated files
# ---------------------------------------------------------------------------


def _pgm_bytes(labels):
    buf = io.BytesIO()
    write_labelmap(labels, buf)
    return buf.getvalue()


_VALID_FILES = {
    "qtn": (_qtn_bytes(_clip(2, 2, 3)), read_tensor),
    "pgm": (
        _pgm_bytes(np.arange(6).reshape(2, 3)),
        lambda src: read_labelmap(src, 256),
    ),
}

# (operation, position, byte); positions wrap around the current length
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["overwrite", "delete", "insert"]),
        st.integers(0, 2**16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=6,
)


def _mutate(data, mutations):
    buf = bytearray(data)
    for op, pos, byte in mutations:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and op == "overwrite":
            buf[pos % len(buf)] = byte
        elif buf:
            del buf[pos % len(buf)]
    return bytes(buf)


@pytest.mark.parametrize(
    "kind, stream",
    [(kind, stream) for stream in (io.BytesIO, _trickle) for kind in sorted(_VALID_FILES)],
    ids=["pgm", "qtn", "pgm-trickle", "qtn-trickle"],
)
@given(mutations=_MUTATIONS)
@settings(max_examples=300, deadline=None)
def test_mutated_file_parses_or_raises_format_error(kind, stream, mutations):
    data, read = _VALID_FILES[kind]
    try:
        read(stream(_mutate(data, mutations)))
    except TensorFormatError:
        pass
