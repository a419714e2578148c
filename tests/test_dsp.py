import hashlib

import numpy as np
import pytest

from touchlab import dsp, errors
from touchlab.core import (
    ModalityKind,
    RecordLog,
    StreamColumns,
    StreamDescriptor,
    stream_id_for,
)
from touchlab.dsp import (
    HIGHPASS,
    LOWPASS,
    FilterSpec,
    apply_filter,
    build_windows,
    butter_sos,
    decay_time,
    hz_to_mel,
    mel_band_edges,
    mel_filterbank,
    mel_power,
    mel_spectrogram,
    peak_frequency,
    pressure_preprocess,
)
from touchlab.recordlog import log_to_bytes


def sine(freq_hz, rate_hz, duration_s, amp=1.0):
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    return amp * np.sin(2 * np.pi * freq_hz * t)


def steady_state_gain(freq_hz, spec, duration_s=20.0):
    """Amplitude-ratio oracle: drive with a sine, measure the output RMS on
    the settled tail."""
    x = sine(freq_hz, spec.sample_rate_hz, duration_s)
    y = apply_filter(x, spec)
    tail = slice(int(0.5 * len(y)), None)
    return np.sqrt(2.0) * np.sqrt(np.mean(y[tail] ** 2))


class TestApplyFilter:
    def test_dc_rejected_by_highpass(self):
        spec = FilterSpec(HIGHPASS, 0.95, 1000.0)
        y = apply_filter(np.ones(30_000), spec)
        assert np.max(np.abs(y[-1000:])) < 0.01

    def test_lowpass_passband_within_1db(self):
        spec = FilterSpec(LOWPASS, 50.0, 1000.0)
        gain_db = 20 * np.log10(steady_state_gain(10.0, spec))
        assert abs(gain_db) <= 1.0

    def test_lowpass_stopband_at_decade(self):
        spec = FilterSpec(LOWPASS, 50.0, 2000.0)
        gain_db = 20 * np.log10(steady_state_gain(500.0, spec))
        assert gain_db <= -20.0

    def test_nyquist_violation(self):
        with pytest.raises(errors.NyquistViolation):
            FilterSpec(LOWPASS, 600.0, 1000.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4000)
        y = rng.normal(size=4000)
        a, b = 2.5, -1.25
        spec = FilterSpec(LOWPASS, 50.0, 1000.0)
        lhs = apply_filter(a * x + b * y, spec)
        rhs = a * apply_filter(x, spec) + b * apply_filter(y, spec)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("btype,fc,fs", [
        (HIGHPASS, 0.95, 1000.0), (LOWPASS, 50.0, 1000.0),
        ("bandpass", (21.0, 39.0), 1000.0)])
    def test_design_made_once_and_copied(self, btype, fc, fs):
        import scipy.signal

        first = butter_sos(btype, fc, fs)
        want = scipy.signal.butter(2, fc, btype=btype, fs=fs, output="sos")
        assert first.tobytes() == want.tobytes()
        first[...] = 0.0  # a caller's copy is its own
        again = butter_sos(btype, fc, fs)
        assert again.flags.writeable and again.tobytes() == want.tobytes()
        hits = dsp._butter_sos.cache_info().hits
        butter_sos(btype, fc, fs)
        assert dsp._butter_sos.cache_info().hits == hits + 1


class TestPressurePreprocess:
    def test_constant_grasp_removed(self):
        y = pressure_preprocess(np.full(30_000, 5.0))
        assert np.max(np.abs(y[-1000:])) < 0.01

    def test_step_response_transient_then_decay(self):
        # Oracle from the filter chain itself: the HPF step response must
        # peak shortly after the edge and decay back toward zero.
        x = np.zeros(30_000)
        x[5000:] = 1.0
        y = pressure_preprocess(x)
        peak_idx = np.argmax(np.abs(y))
        assert 5000 <= peak_idx < 5400
        assert np.abs(y[peak_idx]) > 0.5
        assert np.max(np.abs(y[-1000:])) < 0.01

    def test_5hz_passed_within_1db(self):
        x = sine(5.0, 1000.0, 20.0)
        y = pressure_preprocess(x)
        tail = slice(len(y) // 2, None)
        gain_db = 20 * np.log10(np.sqrt(2) * np.sqrt(np.mean(y[tail] ** 2)))
        assert abs(gain_db) <= 1.0

    def test_multichannel(self):
        x = np.stack([sine(5.0, 1000.0, 10.0), np.full(10_000, 3.0)], axis=1)
        y = pressure_preprocess(x)
        assert y.shape == x.shape
        assert np.max(np.abs(y[-500:, 1])) < 0.01


class TestMelSpectrogram:
    def test_output_contract(self):
        rng = np.random.default_rng(1)
        s = mel_spectrogram(rng.normal(size=48_000), 48_000.0)
        assert s.shape == (64, 64)
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_all_zero_audio(self):
        s = mel_spectrogram(np.zeros(10_000), 48_000.0)
        assert np.all(s == s.flat[0])

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            mel_spectrogram(np.zeros(1024), 48_000.0)

    def test_pure_tone_band(self):
        # Oracle: compute which mel band contains 1 kHz from the band edges.
        rate = 48_000.0
        tone = sine(1000.0, rate, 2.0)
        s = mel_spectrogram(tone, rate)
        edges = mel_band_edges(64, 0.0, rate / 2)
        want = int(np.nonzero((edges[1:-1] <= 1000.0) & (1000.0 <= edges[2:]))[0][0])
        got = int(np.argmax(s.mean(axis=1)))
        assert abs(got - want) <= 1

    def test_white_noise_flat_per_band(self):
        # Monte-Carlo band-energy oracle: for white noise the expected mel
        # power per band is proportional to the filter area.
        rate = 48_000.0
        rng = np.random.default_rng(2)
        acc = np.zeros(64)
        n_trials = 30
        for _ in range(n_trials):
            acc += mel_power(rng.normal(size=48_000), rate).mean(axis=0)
        area = mel_filterbank(rate).sum(axis=1)
        ratio = (acc / n_trials) / area
        ratio /= ratio.mean()
        assert np.all(np.abs(ratio - 1.0) < 0.25)


class TestPeakFrequency:
    def test_pure_tone(self):
        rate = 48_000.0
        x = sine(440.0, rate, 0.25)
        bin_hz = rate / x.size
        assert abs(peak_frequency(x, rate) - 440.0) <= bin_hz / 2

    def test_damped_sinusoid(self):
        rate = 48_000.0
        t = np.arange(int(0.5 * rate)) / rate
        x = np.exp(-t / 0.05) * np.sin(2 * np.pi * 800.0 * t)
        bin_hz = rate / x.size
        assert abs(peak_frequency(x, rate) - 800.0) <= bin_hz

    def test_white_noise_total(self):
        rng = np.random.default_rng(3)
        f = peak_frequency(rng.normal(size=4096), 48_000.0)
        assert np.isfinite(f)

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            peak_frequency(np.zeros(100), 48_000.0)


class TestDecayTime:
    @pytest.mark.parametrize("tau", [0.1, 0.02])
    def test_recovers_generator_tau(self, tau):
        rate = 48_000.0
        t = np.arange(int(8 * tau * rate)) / rate
        x = np.exp(-t / tau) * np.sin(2 * np.pi * 500.0 * t)
        assert decay_time(x, rate) == pytest.approx(tau, rel=0.05)

    def test_pure_sine_non_decaying(self):
        with pytest.raises(errors.NonDecaying):
            decay_time(sine(500.0, 48_000.0, 0.5), 48_000.0)

    def test_silence_has_no_onset(self):
        with pytest.raises(errors.NoOnset):
            decay_time(np.zeros(4096), 48_000.0)


def make_log(duration_s=13.3, fingers=(0,), vt_rate=30.0, audio_rate=8000.0,
             seed=0, with_gas=True):
    """Synthesize a minimal multimodal log without the scenario rig: per
    finger, random frames, 10 ms audio blocks and pressure, inertial and
    gas rows, each stream evenly spaced from t = 0."""
    rng = np.random.default_rng(seed)
    block = 0.01  # 10 ms audio blocks
    n_block = int(audio_rate * block)
    descs, columns = [], {}

    def add(finger, kind, rate, times_s, payload, offsets=None):
        desc = StreamDescriptor(stream_id_for(finger, kind), kind, rate)
        descs.append(desc)
        columns[desc.stream_id] = StreamColumns((times_s * 1e9).astype(np.uint64),
                                                payload, offsets)

    for f in fingers:
        if with_gas:
            gas = rng.normal(size=(int(duration_s), 4)).astype("<f4")
        frames = rng.integers(0, 256, size=(int(duration_s * vt_rate), 120, 120, 3),
                              dtype=np.uint8)
        n_au = int(duration_s / block)
        audio = (rng.normal(size=(n_au * n_block, 4)) * 100).astype("<i2")
        pressure = rng.normal(size=(int(duration_s * 1000), 4)).astype("<f4")
        inertial = rng.normal(size=(int(duration_s * 200), 3)).astype("<f4")
        add(f, ModalityKind.VISUOTACTILE, vt_rate, np.arange(len(frames)) / vt_rate, frames)
        add(f, ModalityKind.SURFACE_AUDIO, audio_rate, np.arange(n_au) * block, audio,
            np.arange(n_au + 1) * n_block)
        add(f, ModalityKind.SURFACE_PRESSURE, 1000.0, np.arange(len(pressure)) / 1000, pressure)
        add(f, ModalityKind.INERTIAL, 200.0, np.arange(len(inertial)) / 200, inertial)
        if with_gas:
            add(f, ModalityKind.GAS, 1.0, np.arange(len(gas)) * 1.0, gas)
    return RecordLog.from_columns(descs, columns)


class TestPinnedMakeLog:
    """SHA-256 of ``make_log``'s file at one and four fingers, so a change
    to how the builder fills the log must keep the bytes the window tests
    read.  Pinned with numpy 2.4.6 on x86_64."""

    @pytest.mark.parametrize("fingers, digest", [
        ((0,), "424b2aa63d6d79a10f995ef66eca6f7b94e7602b28b7728c55a79c2afbdbb04c"),
        ((0, 1, 2, 3), "dde11fc6f71787d7a4966f5be6fcf576fb7641eaccf0d0b5dc680db8481db960"),
    ], ids=["1_finger", "4_fingers"])
    def test_digest(self, fingers, digest):
        assert hashlib.sha256(log_to_bytes(make_log(fingers=fingers))).hexdigest() == digest


class TestBuildWindows:
    def test_window_count(self):
        log = make_log(duration_s=13.3)
        windows = build_windows(log, stride_s=1.33)
        assert len(windows) == 10

    def test_window_shapes(self):
        log = make_log(duration_s=3.0)
        for w in build_windows(log, stride_s=1.33):
            assert w.visuotactile.shape == (10, 120, 120, 3)
            assert w.inertial.shape == (10, 3)
            assert w.pressure.shape == (10, 4)
            assert w.audio.shape == (40, 64, 1)
            assert w.audio.min() >= 0.0 and w.audio.max() <= 1.0

    def test_gas_not_required(self):
        log = make_log(duration_s=3.0, with_gas=False)
        assert len(build_windows(log, stride_s=1.33)) == 2

    def test_missing_modality(self):
        full = make_log(duration_s=3.0)
        pid = stream_id_for(0, ModalityKind.SURFACE_PRESSURE)
        log = RecordLog.from_columns(
            [d for sid, d in full.descriptors.items() if sid != pid],
            {sid: full.stream(sid) for sid in full.descriptors if sid != pid})
        with pytest.raises(errors.MissingModality):
            build_windows(log)

    def test_frames_found_by_timestamp(self):
        # Keeping only the sampled frames plus the first and last gives the
        # same windows; dropping a sampled frame is reported, not skipped.
        full = make_log(duration_s=3.0)
        vid = stream_id_for(0, ModalityKind.VISUOTACTILE)
        cols = full.stream(vid)

        def without(rows):
            keep = np.setdiff1d(np.arange(len(cols)), rows)
            streams = {sid: full.stream(sid) for sid in full.descriptors}
            streams[vid] = StreamColumns(cols.t_ns[keep], cols.payload[keep])
            return RecordLog.from_columns(full.descriptors.values(), streams)

        want = build_windows(full, stride_s=1.33)
        row_of = {frame.tobytes(): i for i, frame in enumerate(cols.payload)}
        used = np.unique([row_of[f.tobytes()] for w in want for f in w.visuotactile])
        sparse = without(np.setdiff1d(np.arange(1, len(cols) - 1), used))
        got = build_windows(sparse, stride_s=1.33)
        assert [w.visuotactile.tobytes() for w in got] == \
            [w.visuotactile.tobytes() for w in want]
        with pytest.raises(errors.InsufficientData):
            build_windows(without([used[3]]), stride_s=1.33)

    def test_multifinger(self):
        log = make_log(duration_s=3.0, fingers=(0, 1))
        windows = build_windows(log, stride_s=1.33)
        assert sorted({w.finger_id for w in windows}) == [0, 1]
        assert len(windows) == 4


class TestMelScaleHelpers:
    def test_mel_monotone(self):
        f = np.linspace(0, 20_000, 100)
        assert np.all(np.diff(hz_to_mel(f)) > 0)

    def test_filterbank_shape(self):
        fb = mel_filterbank(48_000.0)
        assert fb.shape == (64, 1025)
        assert np.all(fb >= 0)

    def test_filterbank_cached_read_only(self):
        fb = mel_filterbank(24_000.0)
        assert mel_filterbank(24_000.0) is fb
        assert not fb.flags.writeable
        fresh = mel_filterbank.__wrapped__(24_000.0)
        assert fresh is not fb and fresh.tobytes() == fb.tobytes()
