"""Signal preprocessing for the feature pipelines.

Covers the whole preprocessing chain used downstream: Butterworth biquad
filtering (the pressure chain is a 0.95 Hz high-pass followed by a 50 Hz
low-pass), 64x64 mel spectrograms (n_fft=2048, n_overlap=1024, 64 mel
bands, power spectrum, dB scale, per-window min-max normalization),
multimodal window building with the fixed tensor layouts, and the ring-down
features (interpolated peak frequency, fitted decay time).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import errors
from .core import (
    AUDIO_WINDOW_SHAPE,
    FORMATS,
    WINDOW_DURATION_S,
    WINDOW_T,
    ModalityKind,
    RecordLog,
    StreamDescriptor,
    WindowSample,
    finger_of,
)

# --- filtering ----------------------------------------------------------------

HIGHPASS = "highpass"
LOWPASS = "lowpass"

PRESSURE_HPF_HZ = 0.95
PRESSURE_LPF_HZ = 50.0


@dataclass(frozen=True)
class FilterSpec:
    """Second-order Butterworth filter as one biquad section: the analog
    rolloff is 40 dB/decade."""

    kind: str
    fc_hz: float
    sample_rate_hz: float

    def __post_init__(self):
        if self.kind not in (HIGHPASS, LOWPASS):
            raise errors.ConfigError(f"kind must be {HIGHPASS!r} or {LOWPASS!r}")
        if not (0 < self.fc_hz < self.sample_rate_hz / 2):
            raise errors.NyquistViolation(
                f"fc={self.fc_hz} Hz outside (0, {self.sample_rate_hz / 2}) Hz")

    def sos(self) -> np.ndarray:
        return butter_sos(self.kind, self.fc_hz, self.sample_rate_hz)


def butter_sos(btype: str, fc, fs_hz: float) -> np.ndarray:
    """Second-order Butterworth design of ``btype`` as second-order
    sections; ``fc`` is a cutoff or, for a band, a (low, high) pair in Hz.
    Each design is made once per process and kept; every caller gets a
    copy, since ``scipy.signal.sosfilt`` refuses read-only sections."""
    return _butter_sos(btype, fc, fs_hz).copy()


@functools.lru_cache(maxsize=128)
def _butter_sos(btype: str, fc, fs_hz: float) -> np.ndarray:
    import scipy.signal

    sos = scipy.signal.butter(2, fc, btype=btype, fs=fs_hz, output="sos")
    sos.flags.writeable = False
    return sos


def apply_filter(series: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Filter ``series`` (1-D, or 2-D filtered along axis 0)."""
    import scipy.signal

    series = np.asarray(series, dtype=np.float64)
    return scipy.signal.sosfilt(spec.sos(), series, axis=0)


def pressure_preprocess(series: np.ndarray, rate_hz: float =
                        FORMATS[ModalityKind.SURFACE_PRESSURE].rate_hz) -> np.ndarray:
    """Two series filters: HPF(0.95 Hz) then LPF(50 Hz).

    Removes static grasp offsets while keeping the fast transients the
    fingertips experience during perturbations.
    """
    hpf = FilterSpec(HIGHPASS, PRESSURE_HPF_HZ, rate_hz)
    lpf = FilterSpec(LOWPASS, PRESSURE_LPF_HZ, rate_hz)
    return apply_filter(apply_filter(series, hpf), lpf)


# --- spectrograms ---------------------------------------------------------------


#: STFT frame and hop (1024 samples of overlap), mel bands and resampled
#: time bins of every spectrogram.
N_FFT, HOP, MEL_BANDS, TIME_BINS = 2048, 1024, 64, 64


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_edges(n_bands: int, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """n_bands+2 edge frequencies, equally spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_bands + 2))


@functools.lru_cache(maxsize=8)
def mel_filterbank(rate_hz: float) -> np.ndarray:
    """Triangular mel filterbank, shape (MEL_BANDS, N_FFT//2 + 1).

    Cached per rate and returned read-only, since every caller gets the
    same array.
    """
    edges = mel_band_edges(MEL_BANDS, 0.0, rate_hz / 2)
    freqs = np.fft.rfftfreq(N_FFT, d=1.0 / rate_hz)
    fb = np.zeros((MEL_BANDS, freqs.size))
    for m in range(MEL_BANDS):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (freqs >= lo) & (freqs <= mid)
        down = (freqs > mid) & (freqs <= hi)
        if mid > lo:
            fb[m, up] = (freqs[up] - lo) / (mid - lo)
        if hi > mid:
            fb[m, down] = (hi - freqs[down]) / (hi - mid)
    fb.flags.writeable = False
    return fb


def _frame(x: np.ndarray) -> np.ndarray:
    n_frames = 1 + (x.size - N_FFT) // HOP
    idx = np.arange(N_FFT)[None, :] + HOP * np.arange(n_frames)[:, None]
    return x[idx]


def mel_power(audio: np.ndarray, rate_hz: float) -> np.ndarray:
    """Linear mel power frames, shape (n_frames, MEL_BANDS)."""
    audio = np.asarray(audio, dtype=np.float64).ravel()
    if audio.size < N_FFT:
        raise errors.TooShort(
            f"need at least n_fft={N_FFT} samples, got {audio.size}")
    frames = _frame(audio)
    window = np.hanning(N_FFT)
    power = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2  # (n_frames, bins)
    return power @ mel_filterbank(rate_hz).T


def mel_spectrogram(audio: np.ndarray, rate_hz: float) -> np.ndarray:
    """Mel power spectrogram as a (MEL_BANDS, TIME_BINS) image in [0, 1].

    Pipeline: Hann-windowed STFT -> power |X|^2 -> 64-band mel filterbank ->
    dB scale -> time axis linearly resampled to 64 columns -> min-max
    normalized per window.  A constant (e.g. all-zero) input normalizes to an
    all-zero image.
    """
    mel_db = 10.0 * np.log10(mel_power(audio, rate_hz) + 1e-12)

    # Resample the time axis to a fixed column count.
    n_frames = mel_db.shape[0]
    src = np.arange(n_frames, dtype=np.float64)
    dst = np.linspace(0.0, n_frames - 1.0, TIME_BINS)
    resampled = np.empty((MEL_BANDS, TIME_BINS))
    for b in range(MEL_BANDS):
        resampled[b] = np.interp(dst, src, mel_db[:, b])

    lo, hi = resampled.min(), resampled.max()
    if hi - lo < 1e-12:
        return np.zeros_like(resampled)
    return (resampled - lo) / (hi - lo)


# --- ring-down features ---------------------------------------------------------


def peak_frequency(series: np.ndarray, rate_hz: float) -> float:
    """Frequency of the magnitude-spectrum argmax, quadratic-interpolated.

    Fits a parabola through the log-magnitude at the argmax bin and its two
    neighbours, giving sub-bin resolution on isolated peaks.
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    if series.size < 256:
        raise errors.TooShort(f"need >= 256 samples, got {series.size}")
    mag = np.abs(np.fft.rfft(series))
    k = int(np.argmax(mag))
    bin_hz = rate_hz / series.size
    if 0 < k < mag.size - 1 and mag[k] > 0:
        logm = np.log(mag[k - 1:k + 2] + 1e-300)
        denom = logm[0] - 2.0 * logm[1] + logm[2]
        delta = 0.0 if denom == 0 else 0.5 * (logm[0] - logm[2]) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    return (k + delta) * bin_hz


def decay_time(series: np.ndarray, rate_hz: float) -> float:
    """Exponential decay constant tau of a ring-down, in seconds.

    Takes the Hilbert envelope, trims its edge ripple, and least-squares
    fits the log envelope slope from the first point at 95% of the peak
    down to the first at 10% (or the end of the record).
    """
    import scipy.signal

    series = np.asarray(series, dtype=np.float64).ravel()
    if series.size < 64:
        raise errors.NoOnset("series too short for onset detection")
    env = np.abs(scipy.signal.hilbert(series))
    # Trim Hilbert edge ripple before looking at the envelope.
    margin = max(4, env.size // 50)
    env = env[margin:-margin]
    peak = env.max()
    if peak < 1e-12:
        raise errors.NoOnset("signal is identically zero")
    # Fit from the first near-peak point down to 10% of peak (or the end of
    # the record).
    start = int(np.argmax(env >= 0.95 * peak))
    tail = np.nonzero(env[start:] <= 0.1 * peak)[0]
    end = start + int(tail[0]) if tail.size else env.size
    if end - start < 16:
        raise errors.NoOnset("decaying section too short to fit")
    t = np.arange(start, end) / rate_hz
    logenv = np.log(env[start:end])
    slope, _ = np.polyfit(t, logenv, 1)
    if slope >= -1e-9:
        raise errors.NonDecaying(f"fitted envelope slope {slope:.3g} is not negative")
    tau = -1.0 / slope
    # A "decay" longer than the whole record is indistinguishable from a
    # sustained tone at this record length.
    if tau > 10.0 * series.size / rate_hz:
        raise errors.NonDecaying(f"fitted tau {tau:.3g}s exceeds record length tenfold")
    return float(tau)


# --- window building -------------------------------------------------------------


def _finger_streams(log: RecordLog) -> dict[int, dict[ModalityKind, StreamDescriptor]]:
    """Group descriptors by finger."""
    fingers: dict[int, dict[ModalityKind, StreamDescriptor]] = {}
    for desc in log.descriptors.values():
        fingers.setdefault(finger_of(desc.stream_id), {})[desc.kind] = desc
    return fingers


def sample_times(t_ns: np.ndarray, offsets, rate_hz: float) -> np.ndarray:
    """Per-sample times (s) of a stream's chunk timestamps.

    Audio blocks (``offsets`` not None) expand to one time per sample,
    reconstructed from the block start time and the stream rate.
    """
    times = t_ns / 1e9
    if offsets is None:
        return times
    starts, lengths = offsets[:-1], np.diff(offsets)
    within = np.arange(offsets[-1]) - np.repeat(starts, lengths)
    return np.repeat(times, lengths) + within / rate_hz


def _uniform_indices(n: int) -> np.ndarray:
    return np.round(np.linspace(0, n - 1, WINDOW_T)).astype(int)


def _interp_columns(times, values, query_times):
    out = np.empty((query_times.size, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.interp(query_times, times, values[:, c])
    return out


def audio_window_tiles(audio: np.ndarray, rate_hz: float) -> np.ndarray:
    """Stack per-channel mel spectrograms into the (T*4, 64, 1) window layout.

    Each of the 4 channels yields a 64x64 spectrogram whose time axis is
    block-averaged down to T=10 rows; channels are stacked along the first
    axis.
    """
    n, n_ch = audio.shape
    tiles = []
    for c in range(n_ch):
        s = mel_spectrogram(audio[:, c], rate_hz)  # (bands, time)
        by_time = s.T  # (time, bands)
        # Block-average 64 time bins down to 10 rows.
        edges = np.linspace(0, by_time.shape[0], WINDOW_T + 1).astype(int)
        rows = np.stack([by_time[a:b].mean(axis=0) for a, b in zip(edges, edges[1:])])
        tiles.append(rows)
    out = np.concatenate(tiles, axis=0)[:, :, None].astype("<f4")
    if out.shape != AUDIO_WINDOW_SHAPE:
        raise errors.ShapeMismatch(f"audio tile shape {out.shape}")
    return out


#: Streams every finger needs for windows (gas and heat are not part of
#: the window contract).
WINDOW_KINDS = (ModalityKind.VISUOTACTILE, ModalityKind.SURFACE_AUDIO,
                ModalityKind.SURFACE_PRESSURE, ModalityKind.INERTIAL)


def window_plan(times: dict, rates: dict, stride_s: float) -> list:
    """(start_s, frame indices) of every window cut from one finger's
    streams, given each ``WINDOW_KINDS`` stream's per-sample times (s) and
    rate.

    Windows start at the latest first sample and step by ``stride_s`` while
    they fit; each stream nominally covers one sample period past its last
    time, so a 13.3 s log cut at stride 1.33 s yields 10 windows.  Frames
    lie on the nominal grid t_0 + i / rate from the first to the last
    visuotactile time, so only those two frames must be present: a window
    samples ``WINDOW_T`` evenly spaced grid frames of the ones inside it.
    """
    t0 = max(t[0] for t in times.values())
    t_end = min(t[-1] + 1.0 / rates[kind] for kind, t in times.items())
    vt, rate = times[ModalityKind.VISUOTACTILE], rates[ModalityKind.VISUOTACTILE]
    n_grid = int(round((vt[-1] - vt[0]) * rate)) + 1
    plan = []
    start = t0
    while start + WINDOW_DURATION_S <= t_end + 1e-9:
        stop = start + WINDOW_DURATION_S
        near = np.arange(max(int((start - vt[0]) * rate) - 1, 0),
                         min(int((stop - vt[0]) * rate) + 2, n_grid))
        grid = vt[0] + near / rate
        inside = near[(grid >= start) & (grid < stop)]
        if inside.size < WINDOW_T:
            raise errors.InsufficientData(
                f"only {inside.size} visuotactile frames in window at {start:.3f}s")
        plan.append((start, inside[_uniform_indices(inside.size)]))
        start += stride_s
    return plan


def _grid_rows(times: np.ndarray, rate_hz: float, frames: np.ndarray) -> np.ndarray:
    """Rows of the stream (per-sample ``times``) that hold ``frames`` of its
    nominal grid, each found by timestamp within half a frame period."""
    want = times[0] + frames / rate_hz
    half = 0.5 / rate_hz
    rows = np.minimum(np.searchsorted(times, want - half), times.size - 1)
    missing = np.abs(times[rows] - want) >= half
    if np.any(missing):
        raise errors.InsufficientData(
            f"no visuotactile frame at {want[missing][0]:.3f}s")
    return rows


def build_windows(log: RecordLog, stride_s: float = WINDOW_DURATION_S,
                  labels: dict | None = None) -> list[WindowSample]:
    """Cut a log into labelled 1.33 s multimodal windows, one set per finger.

    Every finger must carry visuotactile, audio, pressure and inertial
    streams (``WINDOW_KINDS``).  ``window_plan`` places the windows and
    picks their frames; the frame stream may hold only those frames plus
    its first and last, each found by timestamp, so a log made with
    ``run_scenario(script, frames=...)`` gives the windows of the full one.
    Pressure is run through the preprocessing chain before resampling.
    ``labels`` is the (action, material) of every window, given as
    ``{"action": ..., "material": ...}``; None labels them tap and wood.
    """
    if stride_s <= 0:
        raise errors.ConfigError("stride must be positive")
    action, material = (labels["action"], labels["material"]) if labels \
        else ("tap", "wood")
    fingers = _finger_streams(log)

    windows: list[WindowSample] = []
    for finger_id in sorted(fingers):
        streams = fingers[finger_id]
        for kind in WINDOW_KINDS:
            if kind not in streams:
                raise errors.MissingModality(
                    f"finger {finger_id} is missing {kind.name}")
        cols = {kind: log.stream(streams[kind].stream_id) for kind in WINDOW_KINDS}
        rates = {kind: streams[kind].rate_hz for kind in WINDOW_KINDS}
        times = {kind: sample_times(c.t_ns, c.offsets, rates[kind])
                 for kind, c in cols.items()}
        if min(t.size for t in times.values()) == 0:
            raise errors.InsufficientData(f"finger {finger_id} has an empty stream")

        vt, au, pr, im = WINDOW_KINDS
        au_values = cols[au].payload.astype(np.float64)
        pr_filtered = pressure_preprocess(cols[pr].payload, rates[pr])

        for start, frames in window_plan(times, rates, stride_s):
            stop = start + WINDOW_DURATION_S
            frame_rows = _grid_rows(times[vt], rates[vt], frames)

            au_idx = np.nonzero((times[au] >= start) & (times[au] < stop))[0]
            if au_idx.size < N_FFT:
                raise errors.InsufficientData(
                    f"finger {finger_id}: audio window too short at {start:.3f}s")
            audio = audio_window_tiles(au_values[au_idx], rates[au])

            q = np.linspace(start, stop, WINDOW_T, endpoint=False)
            inertial = _interp_columns(times[im], cols[im].payload, q).astype("<f4")
            pressure = _interp_columns(times[pr], pr_filtered, q).astype("<f4")

            windows.append(WindowSample(
                visuotactile=cols[vt].payload[frame_rows], inertial=inertial,
                pressure=pressure, audio=audio,
                action_label=action, material_label=material, finger_id=finger_id,
                window_start_ns=int(round(start * 1e9)),
            ))
    return windows
