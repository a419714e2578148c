"""Core data model shared by every other module.

Streams are identified by a small integer id and described by a
:class:`StreamDescriptor` (modality kind, rate, channel count).  Individual
measurements travel as :class:`ModalitySample` records carrying a monotonic
nanosecond timestamp and a numpy payload whose shape is fixed by the
descriptor.  Training samples are :class:`WindowSample` records with the
fixed per-modality tensor layouts used throughout the classification
pipeline.

All types are immutable after construction and safe to share across
threads/processes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


#: Default stream rates (Hz).  The audio container rate is 48 kHz with a
#: content band up to 10 kHz.
DEFAULT_RATES = {
    ModalityKind.VISUOTACTILE: 240.0,
    ModalityKind.SURFACE_AUDIO: 48_000.0,
    ModalityKind.SURFACE_PRESSURE: 1_000.0,
    ModalityKind.INERTIAL: 200.0,
    ModalityKind.GAS: 1.0,
    ModalityKind.HEAT: 1.0,
}

DEFAULT_CHANNELS = {
    ModalityKind.VISUOTACTILE: 3,
    ModalityKind.SURFACE_AUDIO: 4,
    ModalityKind.SURFACE_PRESSURE: 4,
    ModalityKind.INERTIAL: 3,
    ModalityKind.GAS: 4,
    ModalityKind.HEAT: 1,
}

DEFAULT_SAMPLE_BITS = {
    ModalityKind.VISUOTACTILE: 8,
    ModalityKind.SURFACE_AUDIO: 16,
    ModalityKind.SURFACE_PRESSURE: 32,
    ModalityKind.INERTIAL: 32,
    ModalityKind.GAS: 32,
    ModalityKind.HEAT: 32,
}

VALID_SAMPLE_BITS = (8, 16, 32)

#: Gas record channel order: oxidation resistance (ohm), relative humidity
#: (%), temperature (degC), barometric pressure (hPa).
GAS_CHANNELS = ("gas_ohm", "humidity_pct", "temperature_c", "pressure_hpa")

#: Per-finger stream id layout: finger f, modality m -> f * 8 + offset[m].
STREAM_OFFSETS = {
    ModalityKind.VISUOTACTILE: 0,
    ModalityKind.SURFACE_AUDIO: 1,
    ModalityKind.SURFACE_PRESSURE: 2,
    ModalityKind.INERTIAL: 3,
    ModalityKind.GAS: 4,
    ModalityKind.HEAT: 5,
}


def stream_id_for(finger_id: int, kind: ModalityKind) -> int:
    return finger_id * 8 + STREAM_OFFSETS[kind]


@dataclass(frozen=True)
class StreamDescriptor:
    """Rate/channel metadata for one modality stream.

    ``width``/``height`` are only meaningful for image streams and are 0
    otherwise.
    """

    stream_id: int
    kind: ModalityKind
    rate_hz: float
    channels: int = 1
    sample_bits: int = 32
    width: int = 0
    height: int = 0

    @classmethod
    def default(cls, stream_id: int, kind: ModalityKind, rate_hz: float | None = None,
                width: int = 120, height: int = 120) -> "StreamDescriptor":
        if kind not in ModalityKind.__members__.values():
            raise errors.UnknownKind(f"unknown modality kind: {kind!r}")
        if kind is not ModalityKind.VISUOTACTILE:
            width = height = 0
        return cls(
            stream_id=stream_id,
            kind=kind,
            rate_hz=DEFAULT_RATES[kind] if rate_hz is None else rate_hz,
            channels=DEFAULT_CHANNELS[kind],
            sample_bits=DEFAULT_SAMPLE_BITS[kind],
            width=width,
            height=height,
        )


def validate_descriptor(desc: StreamDescriptor) -> None:
    """Raise a named error unless every descriptor invariant holds."""
    if not isinstance(desc.kind, ModalityKind):
        raise errors.UnknownKind(f"unknown modality kind: {desc.kind!r}")
    if not (desc.rate_hz > 0):
        raise errors.ZeroRate(f"rate_hz must be positive, got {desc.rate_hz}")
    if desc.channels < 1:
        raise errors.ZeroChannels(f"channels must be >= 1, got {desc.channels}")
    if desc.sample_bits not in VALID_SAMPLE_BITS:
        raise errors.UnknownKind(
            f"sample_bits must be one of {VALID_SAMPLE_BITS}, got {desc.sample_bits}")
    if not (0 <= desc.stream_id <= 0xFFFF):
        raise errors.UnknownKind(f"stream_id must fit u16, got {desc.stream_id}")


def frame_delay(rate_hz: float) -> float:
    """Capture delay imposed by a sampled sensor: one frame period, 1/rate.

    240 fps -> 4.17 ms, 60 fps -> 16.7 ms.
    """
    if not (rate_hz > 0):
        raise errors.ZeroRate(f"rate_hz must be positive, got {rate_hz}")
    return 1.0 / rate_hz


# Canonical little-endian payload dtypes per modality.
PAYLOAD_DTYPES = {
    ModalityKind.VISUOTACTILE: np.dtype("u1"),
    ModalityKind.SURFACE_AUDIO: np.dtype("<i2"),
    ModalityKind.SURFACE_PRESSURE: np.dtype("<f4"),
    ModalityKind.INERTIAL: np.dtype("<f4"),
    ModalityKind.GAS: np.dtype("<f4"),
    ModalityKind.HEAT: np.dtype("<f4"),
}


def check_payload(desc: StreamDescriptor, payload: np.ndarray) -> None:
    """Verify that ``payload`` matches the descriptor's shape contract.

    Image streams carry (height, width, channels) uint8 frames; audio carries
    (n, channels) int16 blocks of any block length n >= 1; the remaining
    modalities carry one (channels,) float32 vector per sample.
    """
    expected_dtype = PAYLOAD_DTYPES[desc.kind]
    if payload.dtype != expected_dtype:
        raise errors.ShapeMismatch(
            f"stream {desc.stream_id}: payload dtype {payload.dtype} != {expected_dtype}")
    if desc.kind is ModalityKind.VISUOTACTILE:
        want = (desc.height, desc.width, desc.channels)
        if payload.shape != want:
            raise errors.ShapeMismatch(
                f"stream {desc.stream_id}: image shape {payload.shape} != {want}")
    elif desc.kind is ModalityKind.SURFACE_AUDIO:
        if payload.ndim != 2 or payload.shape[1] != desc.channels or payload.shape[0] < 1:
            raise errors.ShapeMismatch(
                f"stream {desc.stream_id}: audio block shape {payload.shape} "
                f"!= (n, {desc.channels})")
    else:
        if payload.shape != (desc.channels,):
            raise errors.ShapeMismatch(
                f"stream {desc.stream_id}: vector shape {payload.shape} != ({desc.channels},)")


@dataclass(frozen=True)
class ModalitySample:
    """One timestamped measurement on one stream."""

    stream_id: int
    t_ns: TimestampNs
    payload: np.ndarray

    def __post_init__(self):
        if not (0 <= self.t_ns <= MAX_TIMESTAMP_NS):
            raise ValueError(f"timestamp out of u64 range: {self.t_ns}")
        # Freeze the payload so samples are safe to share.
        self.payload.setflags(write=False)


@dataclass
class RecordLog:
    """In-memory form of a recorded session: descriptors plus samples.

    ``samples`` keeps global file order (interleaved streams); timestamps are
    non-decreasing within each stream.
    """

    descriptors: dict[int, StreamDescriptor] = field(default_factory=dict)
    samples: list[ModalitySample] = field(default_factory=list)

    def add_stream(self, desc: StreamDescriptor) -> None:
        validate_descriptor(desc)
        if desc.stream_id in self.descriptors:
            raise errors.DuplicateStream(f"duplicate stream_id {desc.stream_id}")
        self.descriptors[desc.stream_id] = desc

    def append(self, sample: ModalitySample) -> None:
        desc = self.descriptors.get(sample.stream_id)
        if desc is None:
            raise KeyError(f"no descriptor for stream {sample.stream_id}")
        check_payload(desc, sample.payload)
        self.samples.append(sample)

    def stream_samples(self, stream_id: int) -> list[ModalitySample]:
        return [s for s in self.samples if s.stream_id == stream_id]

    def streams_of_kind(self, kind: ModalityKind) -> list[StreamDescriptor]:
        return [d for d in self.descriptors.values() if d.kind is kind]

    def validate_sorted(self) -> None:
        last: dict[int, int] = {}
        for s in self.samples:
            prev = last.get(s.stream_id)
            if prev is not None and s.t_ns < prev:
                raise errors.UnsortedSamples(
                    f"stream {s.stream_id}: timestamp {s.t_ns} after {prev}")
            last[s.stream_id] = s.t_ns


# --- training windows ---------------------------------------------------------

WINDOW_DURATION_S = 1.33
WINDOW_T = 10

ACTIONS = ("slide", "tap", "stir")
MATERIALS = ("wood", "plastic", "silicone")

VISUOTACTILE_WINDOW_SHAPE = (WINDOW_T, 120, 120, 3)
INERTIAL_WINDOW_SHAPE = (WINDOW_T, 3)
PRESSURE_WINDOW_SHAPE = (WINDOW_T, 4)
AUDIO_WINDOW_SHAPE = (WINDOW_T * 4, 64, 1)


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
    duration_s: float = WINDOW_DURATION_S

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
