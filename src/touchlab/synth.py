"""Deterministic multimodal scenario synthesis.

Stands in for the physical fingertip: scripted contact events (tap, slide,
stir, approach, hold) against material-specific object models produce all
six sensor streams per finger.  Every stream's randomness is keyed by
(scenario seed, stream id), so stream synthesis order never affects the
output and identical scripts produce byte-identical logs.  Audio, pressure,
inertial, gas and heat streams draw from one sequential generator each.
Visuotactile frames are counter-keyed (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011): frame i's noise comes from a Philox
generator whose key derives from (seed, stream id) and whose counter holds
i, so any frame is a pure function of (script, finger, i) and a caller can
ask ``run_scenario`` for only the frames it reads.

Planted structure (what the classification experiments learn):

- actions shape the inertial and envelope dynamics: taps are impulsive,
  slides sustain a low-frequency sway, stirs trace a quadrature circle;
- materials shape the audio texture band, the tap ring-down frequency and
  the visuotactile imprint depth;
- materials also assign each finger a pressure-amplitude pattern whose
  overall scale is randomized per event: a single finger sees an ambiguous
  amplitude, while the cross-finger amplitude ratios identify the material
  (only visible when fingers are combined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import errors, optics, pool
from .core import (
    FORMATS,
    IMAGE_SIZE,
    MAX_RATE_HZ,
    ModalityKind,
    RecordLog,
    StreamColumns,
    StreamDescriptor,
    row_shape,
    stream_id_for,
)

TAP = "tap"
SLIDE = "slide"
STIR = "stir"
APPROACH = "approach"
HOLD = "hold"

EVENT_KINDS = (TAP, SLIDE, STIR, APPROACH, HOLD)

FINGERS = (0, 1, 2, 3)

#: Ambient gas record: oxidation resistance (ohm), humidity (%),
#: temperature (degC), pressure (hPa).
AMBIENT_GAS = np.array([50_000.0, 40.0, 25.0, 1013.0])
AMBIENT_TEMP_C = 25.0

#: Per-sample gas sensor noise per channel.
GAS_NOISE = np.array([3800.0, 1.9, 0.62, 0.7])

#: Per-approach signature drift per channel (sample-to-sample material
#: variability).
GAS_DRIFT = np.array([1400.0, 0.6, 0.26, 0.11])

GAS_TAU_S = 30.0

# Container tap acoustics: fill shifts the resonance down from RING_F0_HZ,
# contact position stretches the decay around RING_TAU0_S.
RING_F0_HZ, RING_K_FILL, RING_TAU0_S = 800.0, 0.3, 0.08


@dataclass(frozen=True)
class MaterialModel:
    """Synthesis parameters of one object material."""

    texture_hz: float          # audio texture band centre
    texture_amp: float         # audio texture rms
    ring_f0_hz: float          # tap ring-down frequency
    ring_tau_s: float
    imprint_depth: float       # visuotactile indentation strength, 0..1
    pressure_pattern: tuple    # per-finger contact amplitude ratios
    gas_delta: tuple = (0.0, 0.0, 0.0, 0.0)   # offset from ambient
    temperature_c: float = AMBIENT_TEMP_C


MATERIALS = {
    "wood": MaterialModel(
        texture_hz=900.0, texture_amp=0.12, ring_f0_hz=900.0, ring_tau_s=0.03,
        imprint_depth=0.45, pressure_pattern=(1.2, 0.6, 1.0, 0.8)),
    "plastic": MaterialModel(
        texture_hz=1500.0, texture_amp=0.09, ring_f0_hz=1400.0, ring_tau_s=0.05,
        imprint_depth=0.3, pressure_pattern=(0.8, 1.2, 0.6, 1.0)),
    "silicone": MaterialModel(
        texture_hz=550.0, texture_amp=0.06, ring_f0_hz=400.0, ring_tau_s=0.015,
        imprint_depth=0.8, pressure_pattern=(1.0, 0.8, 1.2, 0.6)),
    "coffee-powder": MaterialModel(
        texture_hz=800.0, texture_amp=0.05, ring_f0_hz=300.0, ring_tau_s=0.01,
        imprint_depth=0.5, pressure_pattern=(1.0, 1.0, 1.0, 1.0),
        gas_delta=(-20_000.0, 5.0, 1.0, 0.0)),
    "liquid-coffee": MaterialModel(
        texture_hz=250.0, texture_amp=0.04, ring_f0_hz=600.0, ring_tau_s=0.08,
        imprint_depth=0.2, pressure_pattern=(1.0, 1.0, 1.0, 1.0),
        gas_delta=(-25_000.0, 18.0, 8.0, 0.0), temperature_c=55.0),
    "rubber": MaterialModel(
        texture_hz=700.0, texture_amp=0.07, ring_f0_hz=350.0, ring_tau_s=0.02,
        imprint_depth=0.6, pressure_pattern=(1.0, 1.0, 1.0, 1.0),
        gas_delta=(-8000.0, 1.0, 0.5, 0.0)),
    "cheese": MaterialModel(
        texture_hz=400.0, texture_amp=0.05, ring_f0_hz=250.0, ring_tau_s=0.012,
        imprint_depth=0.7, pressure_pattern=(1.0, 1.0, 1.0, 1.0),
        gas_delta=(-15_000.0, 8.0, 2.0, 0.0)),
    "soap": MaterialModel(
        texture_hz=550.0, texture_amp=0.04, ring_f0_hz=280.0, ring_tau_s=0.015,
        imprint_depth=0.55, pressure_pattern=(1.0, 1.0, 1.0, 1.0),
        gas_delta=(-12_000.0, 4.0, 1.5, 0.0)),
    "butter": MaterialModel(
        texture_hz=350.0, texture_amp=0.03, ring_f0_hz=220.0, ring_tau_s=0.01,
        imprint_depth=0.65, pressure_pattern=(1.0, 1.0, 1.0, 1.0),
        gas_delta=(-10_000.0, 2.0, 3.0, 0.0), temperature_c=18.0),
    "air": MaterialModel(
        texture_hz=100.0, texture_amp=0.0, ring_f0_hz=100.0, ring_tau_s=0.01,
        imprint_depth=0.0, pressure_pattern=(0.0, 0.0, 0.0, 0.0)),
}

GAS_MATERIALS = ("coffee-powder", "liquid-coffee", "rubber", "cheese",
                 "soap", "butter")


@dataclass(frozen=True)
class ObjectSpec:
    """An object under interaction; ``fill_fraction`` is only meaningful for
    containers."""

    material: str
    fill_fraction: float | None = None
    temperature_c: float | None = None

    def __post_init__(self):
        if self.material not in MATERIALS:
            raise errors.ConfigError(f"unknown material {self.material!r}")
        if self.fill_fraction is not None and not (0.0 <= self.fill_fraction <= 1.0):
            raise errors.ConfigError("fill_fraction must be in [0, 1]")

    @property
    def is_container(self) -> bool:
        return self.fill_fraction is not None

    @property
    def model(self) -> MaterialModel:
        return MATERIALS[self.material]

    def gas_target(self) -> np.ndarray:
        return AMBIENT_GAS + np.asarray(self.model.gas_delta)

    def temperature(self) -> float:
        return self.model.temperature_c if self.temperature_c is None \
            else self.temperature_c


def ring_frequency(fill_fraction: float) -> float:
    return RING_F0_HZ * (1.0 - RING_K_FILL * fill_fraction)


def ring_tau_s(position: float) -> float:
    return RING_TAU0_S * (0.6 + 0.8 * float(np.clip(position, 0.0, 1.0)))


@dataclass(frozen=True)
class Event:
    t_start: float
    t_end: float
    kind: str
    obj: ObjectSpec
    finger_ids: tuple = FINGERS

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise errors.ConfigError(f"unknown event kind {self.kind!r}")
        if self.t_end <= self.t_start:
            raise errors.ConfigError("t_end must be after t_start")
        object.__setattr__(self, "finger_ids", tuple(self.finger_ids))


@dataclass(frozen=True)
class EventDraw:
    """Per-event randomization, shared by every finger and modality."""

    event: Event
    amp_scale: float = 1.0
    freq_scale: float = 1.0
    depth_scale: float = 1.0


DEFAULT_NOISE = {
    ModalityKind.VISUOTACTILE: 1.5,     # uint8 counts
    ModalityKind.SURFACE_AUDIO: 0.002,
    ModalityKind.SURFACE_PRESSURE: 0.01,
    ModalityKind.INERTIAL: 0.05,
    ModalityKind.HEAT: 0.05,
}


#: Most samples one stream may hold (6.2 h of 48 kHz audio); a longer
#: scenario is rejected before anything is allocated.
MAX_STREAM_SAMPLES = 2**30


@dataclass(frozen=True)
class ScenarioScript:
    """A scripted multisensor recording session, checked when it is made:
    ConfigError, or OverlappingEvents for two events on one finger at once."""

    seed: int
    duration_s: float
    events: tuple = ()
    fingers: tuple = FINGERS
    rates: dict = field(default_factory=dict)

    def rate(self, kind: ModalityKind) -> float:
        return float(self.rates.get(kind, FORMATS[kind].rate_hz))

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not (_is_int(self.seed) and self.seed >= 0):
            raise errors.ConfigError(f"seed {self.seed!r} is not a non-negative integer")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise errors.ConfigError(f"duration_s {self.duration_s} is not finite and > 0")
        if not all(0 < r <= MAX_RATE_HZ for r in self.rates.values()):
            raise errors.ConfigError(f"rates {self.rates} are not all in (0, {MAX_RATE_HZ:g}] Hz")
        for kind in ModalityKind:
            if self.duration_s * self.rate(kind) > MAX_STREAM_SAMPLES:
                raise errors.ConfigError(
                    f"{kind.name} stream of {self.duration_s} s at {self.rate(kind)} Hz "
                    f"exceeds {MAX_STREAM_SAMPLES} samples")
        if not all(_is_int(f) for f in self.fingers) \
                or len(set(self.fingers) & set(FINGERS)) < len(self.fingers):
            raise errors.ConfigError(f"fingers {self.fingers} are not distinct ids in {FINGERS}")
        by_finger: dict[int, list] = {}
        for i, ev in enumerate(self.events):
            if not (0 <= ev.t_start and ev.t_end <= self.duration_s + 1e-9):
                raise errors.ConfigError(f"event {i} outside scenario duration")
            for f in ev.finger_ids:
                by_finger.setdefault(f, []).append((ev.t_start, ev.t_end, i))
        for f, spans in by_finger.items():
            spans.sort()
            for (s1, e1, i1), (s2, e2, i2) in zip(spans, spans[1:]):
                if s2 < e1 - 1e-9:
                    raise errors.OverlappingEvents(
                        f"events {i1} and {i2} overlap on finger {f}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frame_noise(key: np.ndarray, frame: int, shape: tuple) -> np.ndarray:
    """Standard normal float32 noise of one visuotactile frame.

    Philox with the stream's key, its counter starting at ``frame`` in the
    second word: a frame's draws advance only the first word, so every
    frame owns its counter block and needs none of the frames before it.
    """
    bits = np.random.Philox(key=key, counter=[0, frame, 0, 0])
    return np.random.Generator(bits).standard_normal(shape, dtype=np.float32)


# --- primitive generators ------------------------------------------------------------


def gen_ringdown(obj: ObjectSpec, contact_position: float, duration_s: float,
                 rate_hz: float = FORMATS[ModalityKind.SURFACE_AUDIO].rate_hz,
                 amplitude: float = 1.0) -> np.ndarray:
    """Damped sinusoid of a container tap.

    Peak frequency depends only on the fill fraction, f = f0 (1 - k * fill);
    the decay constant depends only on the contact position.
    """
    if not obj.is_container:
        raise errors.NotAContainer(
            f"{obj.material!r} has no fill_fraction; ring-down undefined")
    return _damped_sine(duration_s, rate_hz, amplitude, ring_tau_s(contact_position),
                        2.0 * np.pi * ring_frequency(obj.fill_fraction))


def _damped_sine(duration_s: float, rate_hz: float, amplitude: float,
                 tau_s: float, omega: float) -> np.ndarray:
    """amplitude * exp(-t / tau) * sin(omega t), sampled at ``rate_hz``."""
    t = np.arange(int(round(duration_s * rate_hz))) / rate_hz
    return amplitude * np.exp(-t / tau_s) * np.sin(omega * t)


def _relax(start, target, dt: np.ndarray, tau_s: float):
    """First-order relaxation from ``start`` toward ``target``, ``dt``
    seconds in; a vector target gives one row per ``dt``."""
    decay = np.exp(-dt / tau_s)
    if np.ndim(target):
        decay = decay[:, None]
    return target + (start - target) * decay


def gas_samples(duration_s: float) -> int:
    """Samples in ``duration_s`` s of gas record, round(duration_s x rate);
    ConfigError unless finite, positive and within MAX_STREAM_SAMPLES."""
    rate = FORMATS[ModalityKind.GAS].rate_hz
    if not (math.isfinite(duration_s) and 0 < duration_s * rate <= MAX_STREAM_SAMPLES):
        raise errors.ConfigError(f"approach duration must be finite and in "
                                 f"(0, {MAX_STREAM_SAMPLES / rate:g}] s, got {duration_s}")
    return int(round(duration_s * rate))


def gen_gas_approach(obj: ObjectSpec, approach_duration_s: float,
                     rng=None) -> np.ndarray:
    """Gas record series (n, 4) of one approach-to-near-contact.

    First-order relaxation from the ambient baseline toward the material
    signature, with per-approach signature drift and per-sample sensor
    noise when a generator is supplied.
    """
    rate = FORMATS[ModalityKind.GAS].rate_hz
    n = gas_samples(approach_duration_s)
    sig = obj.gas_target().astype(np.float64)
    if rng is not None:
        sig = sig + rng.normal(0.0, GAS_DRIFT)
    series = _relax(AMBIENT_GAS, sig, np.arange(n) / rate, GAS_TAU_S)
    if rng is not None:
        series = series + rng.normal(0.0, GAS_NOISE, size=series.shape)
    return series


@dataclass(frozen=True)
class Imprint:
    """A contact imprint in fisheye image coordinates (u, v in [-1, 1])."""

    u: float
    v: float
    depth: float = 0.5

    def __post_init__(self):
        if self.depth < 0:
            raise errors.ConfigError("imprint depth must be non-negative")
        if math.hypot(self.u, self.v) > 0.95:
            raise errors.ContactOutsideSurface(
                f"imprint at ({self.u:.2f}, {self.v:.2f}) outside the fingertip")


#: Imprint footprint radius and the camera blur applied to it, in pixels.
IMPRINT_RADIUS_PX = 7.0
IMAGE_PSF_PX = 1.8


@lru_cache(maxsize=None)
def _background() -> np.ndarray:
    """Illumination background behind every frame, read-only: a stored
    render of the dome, normalized to mean 0.5 over lit taxels, one channel
    repeated into three (tests/test_synth.py holds its recipe)."""
    channel = np.load(Path(__file__).with_name("background.npy"), allow_pickle=False)
    channel.flags.writeable = False
    return np.broadcast_to(channel[:, :, None], row_shape(ModalityKind.VISUOTACTILE))


def _imprint_transmission(uu, vv, cu, cv, depth) -> np.ndarray:
    """Share of the background each pixel of grid (uu, vv) keeps under one
    imprint per row of ``cu``, ``cv``, ``depth``: shape (rows, size, size).

    An imprint darkens a PSF-blurred disc around its centre (full per-frame
    path tracing is far beyond desk-scale for 240 fps streams).
    """
    sigma = (IMPRINT_RADIUS_PX + IMAGE_PSF_PX) * (2.0 / uu.shape[0])
    r2 = (uu[None, :, :] - cu[:, None, None]) ** 2 \
        + (vv[None, :, :] - cv[:, None, None]) ** 2
    return 1.0 - 0.45 * depth[:, None, None] * np.exp(-0.5 * r2 / sigma ** 2)


def gen_visuotactile(contacts) -> optics.TaxelImage:
    """Noiseless visuotactile frame of static imprints: the illumination
    background times each contact's transmission, the model of every
    recorded frame.  Values in [0, 1], shape (IMAGE_SIZE, IMAGE_SIZE, 3).
    """
    bg = _background()
    if not contacts:
        return optics.TaxelImage(values=bg.copy())
    uu, vv, _ = optics.image_grid()
    cu, cv, depth = np.array([(c.u, c.v, c.depth) for c in contacts],
                             dtype=np.float64).T
    att = np.prod(_imprint_transmission(uu, vv, cu, cv, depth), axis=0)
    return optics.TaxelImage(values=np.clip(bg * att[:, :, None], 0.0, 1.0))


# --- event kinematics ----------------------------------------------------------------


def _imprint_path(kind: str, t_rel: np.ndarray, duration: float,
                  depth: float, finger_id: int):
    """Imprint centre and activity envelope over an event, per frame."""
    base_u = -0.3 + 0.2 * finger_id
    if kind == TAP:
        u = np.full_like(t_rel, base_u)
        v = np.full_like(t_rel, 0.1)
        active = (t_rel >= 0.0) & (t_rel <= 0.04)
        env = np.where(active, np.sin(np.pi * np.clip(t_rel / 0.04, 0, 1)), 0.0)
    elif kind == SLIDE:
        u = base_u + 0.5 * (t_rel / max(duration, 1e-9)) - 0.25
        v = np.full_like(t_rel, -0.1)
        env = np.ones_like(t_rel)
    elif kind == STIR:
        u = base_u + 0.3 * np.cos(2.0 * np.pi * 2.0 * t_rel)
        v = 0.3 * np.sin(2.0 * np.pi * 2.0 * t_rel)
        env = np.ones_like(t_rel)
    elif kind == HOLD:
        u = np.full_like(t_rel, base_u)
        v = np.full_like(t_rel, 0.0)
        env = np.ones_like(t_rel)
    else:  # approach: no contact
        u = np.full_like(t_rel, base_u)
        v = np.full_like(t_rel, 0.0)
        env = np.zeros_like(t_rel)
    return np.clip(u, -0.9, 0.9), np.clip(v, -0.9, 0.9), env * depth


def _bandpass_noise(n: int, rate_hz: float, center_hz: float, rng) -> np.ndarray:
    """Unit-rms noise band around center_hz (clipped to the Nyquist range).
    ``n == 0`` (an event that covers no sample) draws nothing."""
    import scipy.signal

    if n == 0:
        return np.zeros(0)
    nyq = rate_hz / 2.0
    lo = min(max(center_hz * 0.7, 1.0), nyq * 0.8)
    hi = min(center_hz * 1.3, nyq * 0.95)
    sos = scipy.signal.butter(2, [lo, hi], btype="bandpass", fs=rate_hz,
                              output="sos")
    x = scipy.signal.sosfilt(sos, rng.standard_normal(n))
    rms = np.sqrt(np.mean(x ** 2))
    return x / rms if rms > 0 else x


# --- scenario synthesis ----------------------------------------------------------------


def _contacts(events_scales, finger):
    """Draws of the events that touch ``finger``: every kind but approach."""
    return [ed for ed in events_scales
            if finger in ed.event.finger_ids and ed.event.kind != APPROACH]


def _synth_pressure(script, finger, t, events_scales, rng):
    rate = script.rate(ModalityKind.SURFACE_PRESSURE)
    out = rng.normal(0.0, DEFAULT_NOISE[ModalityKind.SURFACE_PRESSURE],
                     size=(t.size, *row_shape(ModalityKind.SURFACE_PRESSURE)))
    chan_gain = np.array([1.0, 0.8, 0.65, 0.5])
    for ed in _contacts(events_scales, finger):
        ev = ed.event
        amp = MATERIALS[ev.obj.material].pressure_pattern[finger] \
            * ed.amp_scale * rng.uniform(0.80, 1.20)
        sel = (t >= ev.t_start) & (t < ev.t_end)
        tr = t[sel] - ev.t_start
        if ev.kind == TAP:
            pulse = np.where(tr < 0.01, np.sin(np.pi * tr / 0.01), 0.0) * amp
            out[sel] += pulse[:, None] * chan_gain[None, :]
            out[sel] += 0.3 * amp  # brief grasp increase during the tap
        elif ev.kind == SLIDE:
            texture = _bandpass_noise(tr.size, rate, 30.0, rng) * 0.3 * amp
            sway = 0.2 * amp * np.sin(2.0 * np.pi * 3.0 * tr)
            out[sel] += (texture + sway)[:, None] * chan_gain[None, :]
            out[sel] += 0.5 * amp
        elif ev.kind == STIR:
            osc = 0.35 * amp * np.sin(2.0 * np.pi * 2.0 * tr)
            texture = _bandpass_noise(tr.size, rate, 25.0, rng) * 0.15 * amp
            out[sel] += (osc + texture)[:, None] * chan_gain[None, :]
            out[sel] += 0.5 * amp
        elif ev.kind == HOLD:
            out[sel] += 0.4 * amp
    return out.astype("<f4")


def _synth_inertial(script, finger, t, events_scales, rng):
    rate = script.rate(ModalityKind.INERTIAL)
    out = rng.normal(0.0, DEFAULT_NOISE[ModalityKind.INERTIAL],
                     size=(t.size, *row_shape(ModalityKind.INERTIAL)))
    for ed in _contacts(events_scales, finger):
        ev = ed.event
        sel = (t >= ev.t_start) & (t < ev.t_end)
        tr = t[sel] - ev.t_start
        if ev.kind == TAP:
            out[sel, 2] += 2.0 * np.exp(-tr / 0.03)
        elif ev.kind == SLIDE:
            out[sel, 0] += 0.8 * np.sin(2.0 * np.pi * 3.0 * tr)
            out[sel, 1] += 0.2 * _bandpass_noise(tr.size, rate, 12.0, rng)
        elif ev.kind == STIR:
            out[sel, 0] += 0.9 * np.sin(2.0 * np.pi * 2.0 * tr)
            out[sel, 1] += 0.9 * np.cos(2.0 * np.pi * 2.0 * tr)
    return out.astype("<f4")


def _synth_audio(script, finger, t, events_scales, rng):
    rate = script.rate(ModalityKind.SURFACE_AUDIO)
    n = t.size
    out = rng.normal(0.0, DEFAULT_NOISE[ModalityKind.SURFACE_AUDIO],
                     size=(n, *row_shape(ModalityKind.SURFACE_AUDIO)))
    chan_gain = np.array([1.0, 0.85, 0.7, 0.6])
    for ed in _contacts(events_scales, finger):
        ev = ed.event
        model = MATERIALS[ev.obj.material]
        i0 = int(round(ev.t_start * rate))
        i1 = min(int(round(ev.t_end * rate)), n)
        if i1 <= i0:
            continue
        seg = slice(i0, i1)
        tr = t[seg] - ev.t_start
        if ev.kind == TAP:
            position = 0.2 + 0.2 * finger
            if ev.obj.is_container:
                # Container resonance is intrinsic to the object: no jitter,
                # the fill level alone sets the peak frequency.
                ring = gen_ringdown(ev.obj, position, (i1 - i0) / rate, rate,
                                    amplitude=0.5)
            else:
                ring = _damped_sine((i1 - i0) / rate, rate, 0.3, model.ring_tau_s,
                                    2.0 * np.pi * model.ring_f0_hz * ed.freq_scale)
            out[seg] += ring[:i1 - i0, None] * chan_gain[None, :]
        elif ev.kind in (SLIDE, STIR):
            texture = _bandpass_noise(i1 - i0, rate,
                                      model.texture_hz * ed.freq_scale, rng)
            env = np.ones_like(tr) if ev.kind == SLIDE \
                else 0.55 + 0.45 * np.sin(2.0 * np.pi * 2.0 * tr)
            out[seg] += (model.texture_amp * texture * env)[:, None] \
                * chan_gain[None, :]
    return np.clip(out * 32767.0 / 4.0, -32768, 32767).astype("<i2")


def _synth_visuotactile(finger, t, frames, events_scales, key):
    """Frames ``frames`` of one finger's visuotactile stream, at times ``t``:
    one ``pool.ordered_map`` job of ``run_scenario``.

    Imprints are a function of time and each frame's noise of its index
    (``_frame_noise``), so a frame comes out the same whichever others are
    made with it.
    """
    noise_sigma = DEFAULT_NOISE[ModalityKind.VISUOTACTILE]

    uu, vv, _ = optics.image_grid()
    base = _background() * 255.0
    active = [(ed, MATERIALS[ed.event.obj.material].imprint_depth
               * ed.depth_scale)
              for ed in _contacts(events_scales, finger)]

    n = t.size
    out = np.empty((n, *row_shape(ModalityKind.VISUOTACTILE)), dtype=np.uint8)
    # Frames per pass: the float64 temporaries below hold 8 frames (2.8 MB
    # each).
    block = 8
    for b0 in range(0, n, block):
        b1 = min(b0 + block, n)
        tb = t[b0:b1]
        att = np.ones((b1 - b0, IMAGE_SIZE, IMAGE_SIZE))
        for ed, depth in active:
            ev = ed.event
            if depth <= 0:
                continue
            m = (tb >= ev.t_start) & (tb < ev.t_end)
            if not np.any(m):
                continue
            tr = tb[m] - ev.t_start
            cu, cv, d = _imprint_path(ev.kind, tr, ev.t_end - ev.t_start,
                                      depth, finger)
            pos = d > 0
            if not np.any(pos):
                continue
            idx = np.nonzero(m)[0][pos]
            att[idx] *= _imprint_transmission(uu, vv, cu[pos], cv[pos], d[pos])
        img = base[None, :, :, :] * att[:, :, :, None]
        for j, frame in enumerate(frames[b0:b1].tolist()):
            noise = _frame_noise(key, frame, img.shape[1:])
            img[j] += np.multiply(noise, noise_sigma, out=noise)
        out[b0:b1] = np.clip(img, 0.0, 255.0, out=img)
    return out


def _relax_over_event(out, t, ev, ambient, target, tau_s, return_tau_s):
    """Write into ``out`` (rows at times ``t``) the relaxation from ambient
    toward ``target`` during ``ev`` and back to ambient after it."""
    during = (t >= ev.t_start) & (t < ev.t_end)
    out[during] = _relax(ambient, target, t[during] - ev.t_start, tau_s)
    after = t >= ev.t_end
    if np.any(after) and np.any(during):
        out[after] = _relax(out[during][-1], ambient, t[after] - ev.t_end,
                            return_tau_s)


def _synth_gas(script, finger, t, events_scales, rng):
    out = np.tile(AMBIENT_GAS, (t.size, 1))
    for ed in events_scales:
        ev = ed.event
        if finger not in ev.finger_ids or ev.kind != APPROACH:
            continue
        sig = ev.obj.gas_target() + rng.normal(0.0, GAS_DRIFT)
        _relax_over_event(out, t, ev, AMBIENT_GAS, sig, GAS_TAU_S, 10.0)
    out += rng.normal(0.0, GAS_NOISE, size=out.shape)
    return out.astype("<f4")


def _synth_heat(script, finger, t, events_scales, rng):
    out = np.full(t.size, AMBIENT_TEMP_C)
    for ed in _contacts(events_scales, finger):
        ev = ed.event
        _relax_over_event(out, t, ev, AMBIENT_TEMP_C, ev.obj.temperature(), 5.0, 8.0)
    out = out + rng.normal(0.0, DEFAULT_NOISE[ModalityKind.HEAT], size=t.size)
    return out.astype("<f4")[:, None]


AUDIO_BLOCK_S = 0.01

#: Visuotactile frames of one ``pool.ordered_map`` job in ``run_scenario``.
FRAMES_PER_JOB = 48


def stream_times(script: ScenarioScript, kind: ModalityKind):
    """Sample times (s), chunk timestamps (uint64 ns) and audio block
    offsets (None for other kinds) of every finger's ``kind`` stream in
    ``run_scenario(script)``: round(duration * rate) samples at i / rate
    from 0 (at least one for gas and heat), audio in AUDIO_BLOCK_S blocks.
    """
    rate = script.rate(kind)
    n = int(round(script.duration_s * rate))
    if kind in (ModalityKind.GAS, ModalityKind.HEAT):
        n = max(n, 1)
    t = np.arange(n) / rate
    chunk_t, offsets = t, None
    if kind is ModalityKind.SURFACE_AUDIO:
        block = max(int(round(AUDIO_BLOCK_S * rate)), 1)
        offsets = np.append(np.arange(0, n, block), n)
        chunk_t = t[offsets[:-1]]
    return t, np.round(chunk_t * 1e9).astype(np.uint64), offsets


def _frame_indices(frames, n: int) -> np.ndarray:
    idx = np.asarray(frames)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or idx[0] < 0 \
            or idx[-1] >= n or np.any(idx[1:] <= idx[:-1]):
        raise errors.ConfigError(
            f"frames must be increasing frame indices in [0, {n})")
    return idx


def run_scenario(script: ScenarioScript, frames=None) -> RecordLog:
    """Synthesize every stream of a scenario into an in-memory RecordLog.

    One stream per (finger, modality), each handed to the log as whole
    columns; chunks are then ordered by (t_ns, stream_id).  Identical
    (script, seed) produce byte-identical logs.  ``frames`` (increasing
    frame indices) makes only those visuotactile frames of every finger,
    each byte-equal to the same frame of the full stream; None makes all.

    ``frames`` is checked before any work starts (the script checked itself
    when it was made).  The
    visuotactile frames are made by ``pool.ordered_map`` in jobs of
    FRAMES_PER_JOB frames of one finger (``_synth_visuotactile``), all
    fingers' jobs in one call, and each block is copied into its finger's
    column as it arrives; the other streams are made in this process.
    Called by a job in a worker, the map runs in that worker.
    """
    vt_t, vt_t_ns, _ = stream_times(script, ModalityKind.VISUOTACTILE)
    keep = np.arange(vt_t.size) if frames is None else _frame_indices(frames, vt_t.size)
    # Per-event randomization shared across fingers: a global amplitude
    # rescale (the material's cross-finger ratio pattern must survive it)
    # and a frequency jitter that blurs single-modality material cues.
    events_scales = []
    for i, ev in enumerate(script.events):
        ev_rng = np.random.default_rng(np.random.SeedSequence((script.seed, 0xE7, i)))
        events_scales.append(EventDraw(
            event=ev,
            amp_scale=ev_rng.uniform(0.6, 1.4),
            freq_scale=ev_rng.uniform(0.75, 1.25),
            depth_scale=ev_rng.uniform(0.7, 1.3),
        ))

    descs, columns, jobs, blocks = [], {}, [], []  # blocks: where each job's frames go
    for finger in script.fingers:
        for kind in ModalityKind:
            desc = StreamDescriptor(stream_id_for(finger, kind), kind, script.rate(kind))
            descs.append(desc)
            seq = np.random.SeedSequence((script.seed, 0x57EA, desc.stream_id))
            if kind is ModalityKind.VISUOTACTILE:
                payload = np.empty((keep.size, *row_shape(kind)), np.uint8)
                key = seq.generate_state(2, np.uint64)
                for b0 in range(0, keep.size, FRAMES_PER_JOB):
                    sel = keep[b0:b0 + FRAMES_PER_JOB]
                    jobs.append((finger, vt_t[sel], sel, events_scales, key))
                    blocks.append(payload[b0:b0 + FRAMES_PER_JOB])
                columns[desc.stream_id] = (vt_t_ns[keep], payload, None)
            else:
                t, t_ns, offsets = stream_times(script, kind)
                payload = _SYNTHS[kind](script, finger, t, events_scales,
                                        np.random.default_rng(seq))
                columns[desc.stream_id] = (t_ns, payload, offsets)
    for block, made in zip(blocks, pool.ordered_map(_synth_visuotactile, jobs)):
        block[...] = made
    return RecordLog.from_columns(descs, {sid: StreamColumns(*cols)
                                          for sid, cols in columns.items()})


_SYNTHS = {
    ModalityKind.SURFACE_AUDIO: _synth_audio,
    ModalityKind.SURFACE_PRESSURE: _synth_pressure,
    ModalityKind.INERTIAL: _synth_inertial,
    ModalityKind.GAS: _synth_gas,
    ModalityKind.HEAT: _synth_heat,
}
