"""Binary record/replay log format.

Fixed little-endian layout so the transport model knows exact per-sample
byte counts, and so write -> read -> write round-trips are byte identical.

Header::

    magic        4 bytes   b"D36R"
    version      u16       format version, currently 1
    n_streams    u16       descriptor count

Descriptor table, one entry per stream (sorted by stream_id)::

    stream_id    u16
    kind         u8        ModalityKind value
    rate_hz      f64       in (0, MAX_RATE_HZ = 1e9]
    channels     u16       the kind's FORMATS row
    sample_bits  u8        the kind's payload width
    width        u16       IMAGE_SIZE for images, else 0
    height       u16       IMAGE_SIZE for images, else 0

The kind fixes the last four fields: the writer fills them in, and the
reader raises ShapeMismatch on other values.  Each record invariant is
checked once, by the constructor of the value that holds it (see
``RecordLog``), so the reader builds the log through those constructors and
the writer trusts it.

Chunks, one per sample, in recorded order::

    stream_id    u16
    t_ns         u64
    payload_len  u32
    payload      payload_len bytes (canonical little-endian dtype)

No compression, no alignment padding.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import errors
from .core import (
    FORMATS,
    IMAGE_SIZE,
    ModalityKind,
    RecordLog,
    StreamColumns,
    StreamDescriptor,
    row_shape,
)

MAGIC = b"D36R"
VERSION = 1

_HEADER = struct.Struct("<4sHH")
_DESC = struct.Struct("<HBdHBHH")
_CHUNK = struct.Struct("<HQI")
_CHUNK_DTYPE = np.dtype([("stream_id", "<u2"), ("t_ns", "<u8"), ("payload_len", "<u4")])
_KINDS = {kind.value: kind for kind in ModalityKind}


def _geometry(kind: ModalityKind) -> tuple:
    """The descriptor fields ``kind`` fixes: channels, sample_bits, width
    and height."""
    size = IMAGE_SIZE if kind is ModalityKind.VISUOTACTILE else 0
    return FORMATS[kind].channels, FORMATS[kind].dtype.itemsize * 8, size, size


def _pieces(log: RecordLog):
    """An iterator over the bytes of ``log``'s file: the header and
    descriptor table, then every chunk's header and payload.  The log is
    valid by construction; payloads are views of the columns, not copies."""
    order = log.chunk_streams  # folds appended samples, which may raise
    head = [_HEADER.pack(MAGIC, VERSION, len(log.descriptors))]
    for sid in sorted(log.descriptors):
        d = log.descriptors[sid]
        head.append(_DESC.pack(d.stream_id, d.kind.value, d.rate_hz, *_geometry(d.kind)))

    heads = np.empty(order.size, dtype=_CHUNK_DTYPE)
    heads["stream_id"] = order
    start = np.empty(order.size, dtype=np.int64)  # payload offset in its column
    views = {}
    for sid in log.descriptors:
        cols = log.stream(sid)
        rows = cols.offsets if cols.offsets is not None else np.arange(len(cols) + 1)
        edges = rows * (cols.payload.itemsize * math.prod(cols.payload.shape[1:]))
        at = np.flatnonzero(order == sid)
        heads["t_ns"][at], heads["payload_len"][at], start[at] = \
            cols.t_ns, np.diff(edges), edges[:-1]
        views[sid] = memoryview(np.ascontiguousarray(cols.payload).reshape(-1).view(np.uint8))
    raw_heads = memoryview(heads.view(np.uint8))

    def chunks():
        step = _CHUNK.size
        for i, (sid, a, n) in enumerate(zip(order.tolist(), start.tolist(),
                                            heads["payload_len"].tolist())):
            yield raw_heads[i * step:(i + 1) * step]
            yield views[sid][a:a + n]

    return itertools.chain(head, chunks())


def log_to_bytes(log: RecordLog) -> bytes:
    """Serialize a RecordLog."""
    return b"".join(_pieces(log))


def log_from_bytes(data) -> RecordLog:
    """Parse bytes produced by :func:`log_to_bytes`.

    ``data`` is any buffer (bytes, bytearray, mmap).  Every payload is
    copied out of it into the log's columns, so the log does not alias
    ``data``.
    """
    if len(data) < _HEADER.size:
        raise errors.TruncatedChunk("file shorter than header")
    magic, version, n_streams = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise errors.BadMagic(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise errors.VersionMismatch(f"unsupported version {version}, expected {VERSION}")

    off = _HEADER.size
    table = {}
    for _ in range(n_streams):
        if off + _DESC.size > len(data):
            raise errors.TruncatedChunk("descriptor table truncated")
        sid, code, rate, *geometry = _DESC.unpack_from(data, off)
        off += _DESC.size
        desc = StreamDescriptor(sid, _KINDS.get(code, code), rate)  # checks itself
        if tuple(geometry) != _geometry(desc.kind):
            raise errors.ShapeMismatch(
                f"stream {sid}: {desc.kind.name.lower()} declares (channels, sample_bits, "
                f"width, height) {tuple(geometry)}, not {_geometry(desc.kind)}")
        if sid in table:
            raise errors.DuplicateStream(f"duplicate stream_id {sid}")
        table[sid] = desc

    # The one sequential pass: each chunk header gives the next one's offset.
    starts = []
    end = len(data)
    while off < end:
        if off + _CHUNK.size > end:
            raise errors.TruncatedChunk(f"chunk header truncated at offset {off}")
        starts.append(off)
        off += _CHUNK.size + _CHUNK.unpack_from(data, off)[2]
    if off > end:
        raise errors.TruncatedChunk(f"chunk payload truncated at offset {starts[-1]}")

    starts = np.array(starts, dtype=np.int64)
    heads = _gather(data, starts, _CHUNK.size).view(_CHUNK_DTYPE)[:, 0]
    chunk_streams = heads["stream_id"]  # from_columns refuses an unknown stream
    columns = {}
    for sid, desc in table.items():
        mine = chunk_streams == sid
        columns[sid] = _decode_stream(desc, data, starts[mine] + _CHUNK.size,
                                      heads["payload_len"][mine].astype(np.int64),
                                      heads["t_ns"][mine])
    return RecordLog.from_columns(table.values(), columns, chunk_streams)


def _gather(data, starts: np.ndarray, size: int) -> np.ndarray:
    """Copy ``size`` bytes at each offset in ``starts`` out of ``data``: a
    (n, size) array.  No view of ``data`` outlives the call."""
    if size == 0 or starts.size == 0:
        return np.zeros((starts.size, size), dtype=np.uint8)
    return sliding_window_view(np.frombuffer(data, dtype=np.uint8), size)[starts]


def _decode_stream(desc: StreamDescriptor, data, starts: np.ndarray,
                   lengths: np.ndarray, t_ns: np.ndarray) -> StreamColumns:
    """Copy one stream's payloads into columns, checking every length (one
    row per chunk, or for audio a whole number of frame rows) and the
    timestamp order; either error names the stream."""
    dtype = FORMATS[desc.kind].dtype
    row = dtype.itemsize * math.prod(row_shape(desc.kind))
    audio = desc.kind is ModalityKind.SURFACE_AUDIO
    bad = (lengths == 0) | (lengths % row != 0) if audio else lengths != row
    if bad.any():
        raise errors.TruncatedChunk(
            f"stream {desc.stream_id}: payload of {lengths[bad][0]} bytes is not "
            f"{'a whole number of' if audio else 'one'} {row}-byte row")
    sizes = np.unique(lengths).tolist()
    if len(sizes) <= 1:  # one payload size: the gathered rows are the column
        flat = _gather(data, starts, sizes[0] if sizes else row)
    else:
        flat = np.empty(int(lengths.sum()), dtype=np.uint8)
        dest = np.cumsum(lengths) - lengths
        for size in sizes:
            same = lengths == size
            sliding_window_view(flat, size, writeable=True)[dest[same]] = \
                _gather(data, starts[same], size)
    n_rows = int(lengths.sum()) // row if audio else starts.size
    payload = flat.view(dtype).reshape(n_rows, *row_shape(desc.kind))
    offsets = np.concatenate([[0], np.cumsum(lengths // row)]) if audio else None
    try:
        return StreamColumns(t_ns, payload, offsets)
    except errors.UnsortedSamples as exc:
        raise errors.UnsortedSamples(f"stream {desc.stream_id}: {exc}") from None


def write_log(log: RecordLog, path) -> int:
    """Write ``log`` to ``path`` chunk by chunk; returns bytes written."""
    pieces = _pieces(log)  # checks the log before the file is touched
    with open(path, "wb") as fh:
        fh.writelines(pieces)
        return fh.tell()


def read_log(path) -> RecordLog:
    """Read a log file through a read-only memory map.  Payloads are copied
    out of the mapping, so the log stays valid when the file is rewritten."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return log_from_bytes(b"")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return log_from_bytes(data)
