"""Core data model shared by every other module.

Streams are identified by a small integer id and described by a
:class:`StreamDescriptor` (stream id, modality kind, rate).  A stream's
channel count, sample width and image size are fixed by its kind's
:data:`FORMATS` row and :data:`IMAGE_SIZE`, not by the descriptor.  A
recorded session is a :class:`RecordLog` holding each stream's chunks as
columns (:class:`StreamColumns`): monotonic nanosecond timestamps and one
stacked payload array whose row shape is fixed by the kind.  A single
measurement can also travel as a :class:`ModalitySample`.  Training samples
are :class:`WindowSample` records with the fixed per-modality tensor layouts
used throughout the classification pipeline.

All types are immutable after construction and safe to share across
threads/processes, except the ``_features`` memo of encoded features that
``experiments`` adds to a :class:`WindowSample` (its arrays stay read-only).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import errors

# Timestamps are plain ints: unsigned 64-bit nanoseconds on a monotonic
# (usually virtual) clock.
TimestampNs = int

MAX_TIMESTAMP_NS = 2**64 - 1


class ModalityKind(enum.Enum):
    VISUOTACTILE = 1
    SURFACE_AUDIO = 2
    SURFACE_PRESSURE = 3
    INERTIAL = 4
    GAS = 5
    HEAT = 6


@dataclass(frozen=True)
class ModalityFormat:
    """One modality's fixed format: default rate (Hz), channel count,
    canonical little-endian payload dtype and stream-id offset within its
    finger's block (see :func:`stream_id_for`)."""

    rate_hz: float
    channels: int
    dtype: np.dtype
    stream_offset: int


#: The format of every modality.  The audio container rate is 48 kHz with
#: a content band up to 10 kHz.
FORMATS = {
    ModalityKind.VISUOTACTILE: ModalityFormat(240.0, 3, np.dtype("u1"), 0),
    ModalityKind.SURFACE_AUDIO: ModalityFormat(48_000.0, 4, np.dtype("<i2"), 1),
    ModalityKind.SURFACE_PRESSURE: ModalityFormat(1_000.0, 4, np.dtype("<f4"), 2),
    ModalityKind.INERTIAL: ModalityFormat(200.0, 3, np.dtype("<f4"), 3),
    ModalityKind.GAS: ModalityFormat(1.0, 4, np.dtype("<f4"), 4),
    ModalityKind.HEAT: ModalityFormat(1.0, 1, np.dtype("<f4"), 5),
}

#: Side of the square fingertip camera image, in pixels.
IMAGE_SIZE = 120


def stream_id_for(finger_id: int, kind: ModalityKind) -> int:
    """Stream id of finger ``finger_id``'s ``kind`` stream: each finger owns
    a block of 8 ids."""
    return finger_id * 8 + FORMATS[kind].stream_offset


def finger_of(stream_id: int) -> int:
    """The finger whose block holds ``stream_id``."""
    return stream_id // 8


@dataclass(frozen=True)
class StreamDescriptor:
    """One modality stream: its id, kind and rate.  The kind's row of
    :data:`FORMATS` fixes everything else (see :func:`row_shape`)."""

    stream_id: int
    kind: ModalityKind
    rate_hz: float

    @classmethod
    def default(cls, stream_id: int, kind: ModalityKind,
                rate_hz: float | None = None) -> "StreamDescriptor":
        """A descriptor at ``rate_hz``, or at the kind's default rate."""
        if kind not in ModalityKind.__members__.values():
            raise errors.UnknownKind(f"unknown modality kind: {kind!r}")
        return cls(stream_id, kind, FORMATS[kind].rate_hz if rate_hz is None else rate_hz)


def validate_descriptor(desc: StreamDescriptor) -> None:
    """Raise a named error unless every descriptor invariant holds."""
    if not isinstance(desc.kind, ModalityKind):
        raise errors.UnknownKind(f"unknown modality kind: {desc.kind!r}")
    if not (desc.rate_hz > 0):
        raise errors.ZeroRate(f"rate_hz must be positive, got {desc.rate_hz}")
    if not (0 <= desc.stream_id <= 0xFFFF):
        raise errors.UnknownKind(f"stream_id must fit u16, got {desc.stream_id}")


def row_shape(kind: ModalityKind) -> tuple:
    """Shape of one payload row of a ``kind`` stream: a whole
    (IMAGE_SIZE, IMAGE_SIZE, channels) image, one audio frame or one
    vector, each of the kind's ``channels`` values."""
    channels = FORMATS[kind].channels
    if kind is ModalityKind.VISUOTACTILE:
        return (IMAGE_SIZE, IMAGE_SIZE, channels)
    return (channels,)


@dataclass(frozen=True)
class ModalitySample:
    """One timestamped measurement on one stream."""

    stream_id: int
    t_ns: TimestampNs
    payload: np.ndarray

    def __post_init__(self):
        if not (0 <= self.t_ns <= MAX_TIMESTAMP_NS):
            raise errors.ConfigError(f"timestamp out of u64 range: {self.t_ns}")
        # Freeze the payload so samples are safe to share.
        self.payload.setflags(write=False)


@dataclass(frozen=True)
class StreamColumns:
    """One stream's chunks as columns, after the Arrow columnar layout.

    ``t_ns`` holds every chunk's timestamp (uint64) and ``payload`` the
    chunks' rows (:func:`row_shape`) stacked in the canonical dtype.  A
    chunk is one row, except that audio chunk k is the block of frames
    ``payload[offsets[k]:offsets[k + 1]]``.  The arrays are made read-only,
    not copied.
    """

    t_ns: np.ndarray
    payload: np.ndarray
    offsets: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.t_ns, self.payload, self.offsets):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return self.t_ns.size

    def chunk(self, k: int) -> np.ndarray:
        if self.offsets is None:
            return self.payload[k]
        return self.payload[self.offsets[k]:self.offsets[k + 1]]

    def check(self, desc: StreamDescriptor) -> None:
        """Raise ShapeMismatch unless the columns follow ``desc``'s contract."""
        n, o = len(self), self.offsets
        rows = n
        if desc.kind is ModalityKind.SURFACE_AUDIO:
            tiled = o is not None and o.shape == (n + 1,) and o[0] == 0 and np.all(o[1:] > o[:-1])
            rows = o[-1] if tiled else -1
        elif o is not None:
            rows = -1
        if (self.t_ns.dtype != np.uint64 or self.t_ns.shape != (n,)
                or self.payload.dtype != FORMATS[desc.kind].dtype
                or self.payload.shape != (rows, *row_shape(desc.kind))):
            raise errors.ShapeMismatch(
                f"stream {desc.stream_id}: columns do not hold {FORMATS[desc.kind].dtype} "
                f"rows of shape {row_shape(desc.kind)}")


class RecordLog:
    """In-memory form of a recorded session: the stream descriptors plus
    each stream's chunks as :class:`StreamColumns`.

    ``chunk_streams`` holds the stream id of every chunk in file order
    (interleaved streams); timestamps are non-decreasing within each stream.
    ``append`` adds one :class:`ModalitySample` at the end; appended samples
    are folded into the columns when the log is next read.  ``samples`` and
    ``stream_samples`` build ModalitySample views of the columns.
    """

    def __init__(self):
        self.descriptors: dict[int, StreamDescriptor] = {}
        self._columns: dict[int, StreamColumns] = {}
        self._chunk_streams = np.empty(0, dtype=np.uint16)
        self._pending: list[tuple[int, StreamColumns]] = []

    @classmethod
    def from_columns(cls, descriptors, columns: dict,
                     chunk_streams: np.ndarray | None = None) -> "RecordLog":
        """A log of ``descriptors`` whose streams are handed over whole:
        ``columns`` maps stream id to StreamColumns (a stream left out has no
        chunks).  ``chunk_streams`` gives the file order; by default chunks
        are ordered by (t_ns, stream_id) with a stable sort."""
        log = cls()
        for desc in descriptors:
            log.add_stream(desc)
        for sid, cols in columns.items():
            if sid not in log.descriptors:
                raise errors.UnknownKind(f"no descriptor for stream {sid}")
            cols.check(log.descriptors[sid])
            log._columns[sid] = cols
        sids = np.concatenate([np.full(len(c), sid, dtype=np.uint16)
                               for sid, c in log._columns.items()] or [log._chunk_streams])
        if chunk_streams is None:
            t_ns = np.concatenate([c.t_ns for c in log._columns.values()] or [sids])
            chunk_streams = sids[np.lexsort((sids, t_ns))]
        elif not np.array_equal(np.sort(chunk_streams), np.sort(sids)):
            raise errors.ShapeMismatch("chunk_streams does not match the stream columns")
        log._chunk_streams = np.array(chunk_streams, dtype=np.uint16)
        log._chunk_streams.setflags(write=False)
        return log

    def add_stream(self, desc: StreamDescriptor) -> None:
        validate_descriptor(desc)
        if desc.stream_id in self.descriptors:
            raise errors.DuplicateStream(f"duplicate stream_id {desc.stream_id}")
        self.descriptors[desc.stream_id] = desc
        audio = desc.kind is ModalityKind.SURFACE_AUDIO
        self._columns[desc.stream_id] = StreamColumns(
            np.empty(0, dtype=np.uint64),
            np.empty((0, *row_shape(desc.kind)), dtype=FORMATS[desc.kind].dtype),
            np.zeros(1, dtype=np.int64) if audio else None)

    def append(self, sample: ModalitySample) -> None:
        desc = self.descriptors.get(sample.stream_id)
        if desc is None:
            raise errors.UnknownKind(f"no descriptor for stream {sample.stream_id}")
        p, t_ns = sample.payload, np.array([sample.t_ns], dtype=np.uint64)
        if desc.kind is ModalityKind.SURFACE_AUDIO:
            one = StreamColumns(t_ns, p, np.array([0, p.shape[0] if p.ndim else 0]))
        else:
            one = StreamColumns(t_ns, p[None])
        one.check(desc)
        self._pending.append((sample.stream_id, one))

    def _flush(self) -> None:
        """Fold appended samples into the columns, one concatenation per stream."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        parts: dict[int, list[StreamColumns]] = {}
        for sid, one in pending:
            parts.setdefault(sid, [self._columns[sid]]).append(one)
        for sid, cols in parts.items():
            offsets = None
            if cols[0].offsets is not None:
                lengths = np.concatenate([np.diff(c.offsets) for c in cols])
                offsets = np.concatenate([[0], np.cumsum(lengths)])
            self._columns[sid] = StreamColumns(np.concatenate([c.t_ns for c in cols]),
                                               np.concatenate([c.payload for c in cols]),
                                               offsets)
        self._chunk_streams = np.concatenate([
            self._chunk_streams, np.array([sid for sid, _ in pending], dtype=np.uint16)])
        self._chunk_streams.setflags(write=False)

    def stream(self, stream_id: int) -> StreamColumns:
        self._flush()
        return self._columns[stream_id]

    @property
    def chunk_streams(self) -> np.ndarray:
        self._flush()
        return self._chunk_streams

    @property
    def samples(self) -> list[ModalitySample]:
        """Every chunk as a ModalitySample, in file order."""
        per_stream = {sid: iter(self.stream_samples(sid)) for sid in self.descriptors}
        return [next(per_stream[sid]) for sid in self.chunk_streams.tolist()]

    def stream_samples(self, stream_id: int) -> list[ModalitySample]:
        if stream_id not in self.descriptors:
            return []
        cols = self.stream(stream_id)
        return [ModalitySample(stream_id, t, cols.chunk(k))
                for k, t in enumerate(cols.t_ns.tolist())]

    def validate_sorted(self) -> None:
        for sid in self.descriptors:
            t = self.stream(sid).t_ns
            back = np.flatnonzero(t[1:] < t[:-1])
            if back.size:
                raise errors.UnsortedSamples(
                    f"stream {sid}: timestamp {t[back[0] + 1]} after {t[back[0]]}")


# --- training windows ---------------------------------------------------------

WINDOW_DURATION_S = 1.33
WINDOW_T = 10

ACTIONS = ("slide", "tap", "stir")
MATERIALS = ("wood", "plastic", "silicone")

VISUOTACTILE_WINDOW_SHAPE = (WINDOW_T, *row_shape(ModalityKind.VISUOTACTILE))
INERTIAL_WINDOW_SHAPE = (WINDOW_T, *row_shape(ModalityKind.INERTIAL))
PRESSURE_WINDOW_SHAPE = (WINDOW_T, *row_shape(ModalityKind.SURFACE_PRESSURE))
AUDIO_WINDOW_SHAPE = (WINDOW_T * FORMATS[ModalityKind.SURFACE_AUDIO].channels, 64, 1)


@dataclass(frozen=True)
class WindowSample:
    """One 1.33 s multimodal training sample for a single finger.

    Tensor layouts are a hard contract:

    ==============  =================  =======
    field           shape              dtype
    ==============  =================  =======
    visuotactile    (10, 120, 120, 3)  uint8
    inertial        (10, 3)            float32
    pressure        (10, 4)            float32
    audio           (40, 64, 1)        float32, values in [0, 1]
    ==============  =================  =======

    ``audio`` stacks the 4 microphone channels along the first axis, 10
    time rows per channel.
    """

    visuotactile: np.ndarray
    inertial: np.ndarray
    pressure: np.ndarray
    audio: np.ndarray
    action_label: str
    material_label: str
    finger_id: int
    window_start_ns: TimestampNs = 0

    def __post_init__(self):
        checks = (
            ("visuotactile", self.visuotactile, VISUOTACTILE_WINDOW_SHAPE, np.dtype("u1")),
            ("inertial", self.inertial, INERTIAL_WINDOW_SHAPE, np.dtype("<f4")),
            ("pressure", self.pressure, PRESSURE_WINDOW_SHAPE, np.dtype("<f4")),
            ("audio", self.audio, AUDIO_WINDOW_SHAPE, np.dtype("<f4")),
        )
        for name, arr, shape, dtype in checks:
            if arr.shape != shape:
                raise errors.ShapeMismatch(f"{name} shape {arr.shape} != {shape}")
            if arr.dtype != dtype:
                raise errors.ShapeMismatch(f"{name} dtype {arr.dtype} != {dtype}")
            arr.setflags(write=False)
        if self.action_label not in ACTIONS:
            raise errors.LabelOutOfRange(f"unknown action {self.action_label!r}")
        if self.material_label not in MATERIALS:
            raise errors.LabelOutOfRange(f"unknown material {self.material_label!r}")
        if not (0 <= self.finger_id <= 3):
            raise errors.LabelOutOfRange(f"finger_id must be 0..3, got {self.finger_id}")
