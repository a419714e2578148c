import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchlab import errors, experiments, optics, pool, synth
from touchlab.core import ModalityKind, stream_id_for
from touchlab.dsp import decay_time, peak_frequency
from touchlab.recordlog import log_to_bytes
from touchlab.synth import (
    DEFAULT_NOISE,
    Event,
    Imprint,
    ObjectSpec,
    ScenarioScript,
    gen_gas_approach,
    gen_ringdown,
    gen_visuotactile,
    ring_frequency,
    ring_tau_s,
    run_scenario,
)

FAST_RATES = {ModalityKind.VISUOTACTILE: 30.0,
              ModalityKind.SURFACE_AUDIO: 8000.0}


class TestScenarioScript:
    def test_overlapping_events_rejected(self):
        obj = ObjectSpec("wood")
        script = ScenarioScript(seed=0, duration_s=2.0, events=[
            Event(0.2, 1.0, "slide", obj, (0,)),
            Event(0.8, 1.5, "tap", obj, (0,)),
        ])
        with pytest.raises(errors.OverlappingEvents):
            script.validate()

    def test_overlap_on_different_fingers_allowed(self):
        obj = ObjectSpec("wood")
        script = ScenarioScript(seed=0, duration_s=2.0, events=[
            Event(0.2, 1.0, "slide", obj, (0,)),
            Event(0.8, 1.5, "tap", obj, (1,)),
        ])
        script.validate()

    @pytest.mark.parametrize("field,value", [
        ("duration_s", -1.0), ("duration_s", 0.0), ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("fingers", ("a",)), ("fingers", (1.0,)), ("fingers", (4,)),
        ("fingers", (True,)), ("fingers", (1, 1)), ("fingers", ([1],)),
        ("seed", -1), ("seed", 1.5), ("seed", "3"),
        ("rates", {ModalityKind.GAS: float("nan")}),
        ("rates", {ModalityKind.HEAT: 0.0}),
        ("rates", {ModalityKind.INERTIAL: float("inf")}),
        ("duration_s", 1e300),
        ("rates", {ModalityKind.SURFACE_AUDIO: 1e12}),
    ])
    def test_bad_script_field_rejected(self, field, value):
        kwargs = {"seed": 0, "duration_s": 1.0, field: value}
        with pytest.raises(errors.ConfigError):
            ScenarioScript(**kwargs).validate()

    @pytest.mark.parametrize("t_start,t_end", [(float("nan"), 0.5),
                                               (0.1, float("nan"))])
    def test_bad_event_rejected(self, t_start, t_end):
        script = ScenarioScript(seed=0, duration_s=1.0, events=[
            Event(t_start, t_end, "tap", ObjectSpec("wood"), (0,))])
        with pytest.raises(errors.ConfigError):
            script.validate()

    def test_event_outside_duration_rejected(self):
        obj = ObjectSpec("wood")
        script = ScenarioScript(seed=0, duration_s=1.0, events=[
            Event(0.5, 1.5, "tap", obj, (0,)),
        ])
        with pytest.raises(ValueError):
            script.validate()


class TestRunScenario:
    def test_silence_sample_counts(self):
        script = ScenarioScript(seed=0, duration_s=1.0, events=[], fingers=(0,),
                                rates=FAST_RATES)
        log = run_scenario(script)
        vt = log.stream_samples(stream_id_for(0, ModalityKind.VISUOTACTILE))
        pr = log.stream_samples(stream_id_for(0, ModalityKind.SURFACE_PRESSURE))
        im = log.stream_samples(stream_id_for(0, ModalityKind.INERTIAL))
        assert len(vt) == 30
        assert len(pr) == 1000
        assert len(im) == 200

    def test_default_rate_gives_240_frames(self):
        script = ScenarioScript(seed=0, duration_s=1.0, events=[], fingers=(0,),
                                rates={ModalityKind.SURFACE_AUDIO: 8000.0})
        log = run_scenario(script)
        vt = log.stream_samples(stream_id_for(0, ModalityKind.VISUOTACTILE))
        assert len(vt) == 240

    def test_same_seed_byte_identical(self):
        def make():
            return run_scenario(ScenarioScript(
                seed=99, duration_s=1.0, fingers=(0,), rates=FAST_RATES,
                events=[Event(0.3, 0.4, "tap", ObjectSpec("plastic"), (0,))]))
        assert log_to_bytes(make()) == log_to_bytes(make())

    def test_different_seed_differs(self):
        def make(seed):
            return log_to_bytes(run_scenario(ScenarioScript(
                seed=seed, duration_s=0.5, fingers=(0,), rates=FAST_RATES)))
        assert make(1) != make(2)

    def test_tap_transients_centered(self):
        # Envelope-peak locator oracle: both transients peak near the tap.
        script = ScenarioScript(
            seed=5, duration_s=1.5, fingers=(0,), rates=FAST_RATES,
            events=[Event(0.5, 0.56, "tap", ObjectSpec("wood"), (0,))])
        log = run_scenario(script)
        pr = np.stack([s.payload for s in log.stream_samples(
            stream_id_for(0, ModalityKind.SURFACE_PRESSURE))])
        tp = np.array([s.t_ns / 1e9 for s in log.stream_samples(
            stream_id_for(0, ModalityKind.SURFACE_PRESSURE))])
        peak_t = tp[np.argmax(np.abs(pr[:, 0]))]
        assert 0.5 <= peak_t <= 0.56

        audio = np.concatenate([s.payload for s in log.stream_samples(
            stream_id_for(0, ModalityKind.SURFACE_AUDIO))])[:, 0]
        ta = np.arange(audio.size) / 8000.0
        peak_a = ta[np.argmax(np.abs(audio))]
        assert 0.5 <= peak_a <= 0.6


@st.composite
def scripts(draw):
    """Short scenarios at 30/60/240 fps on 1-4 fingers, with back-to-back
    events of any kind."""
    duration = draw(st.floats(0.2, 0.6))
    fingers = tuple(sorted(draw(st.sets(st.sampled_from(synth.FINGERS),
                                        min_size=1))))
    events, t = [], 0.0
    for kind in draw(st.lists(st.sampled_from(synth.EVENT_KINDS), max_size=5)):
        t_start = t + draw(st.floats(0.0, 0.05))
        t = t_start + draw(st.floats(0.02, 0.2))
        if t > duration:
            break
        material = draw(st.sampled_from(["wood", "plastic", "silicone", "rubber"]))
        events.append(Event(t_start, t, kind, ObjectSpec(material),
                            draw(st.sets(st.sampled_from(fingers), min_size=1))))
    return ScenarioScript(
        seed=draw(st.integers(0, 2**32)), duration_s=duration, events=events,
        fingers=fingers,
        rates={ModalityKind.VISUOTACTILE: draw(st.sampled_from([30.0, 60.0, 240.0])),
               ModalityKind.SURFACE_AUDIO: 8000.0})


class TestFramesOnDemand:
    """``run_scenario(script, frames=...)`` makes only the listed frames,
    each byte-equal to the same row of the full stream, and leaves every
    other stream as it is."""

    @settings(max_examples=25, deadline=None)
    @given(script=scripts(), data=st.data())
    def test_subset_matches_full_stream(self, script, data):
        full = run_scenario(script)
        n = len(full.stream(stream_id_for(script.fingers[0], ModalityKind.VISUOTACTILE)))
        frames = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=12)))
        part = run_scenario(script, frames=frames)
        for sid, desc in full.descriptors.items():
            want, got = full.stream(sid), part.stream(sid)
            if desc.kind is ModalityKind.VISUOTACTILE:
                assert got.t_ns.tobytes() == want.t_ns[frames].tobytes()
                assert got.payload.tobytes() == want.payload[frames].tobytes()
            else:
                assert got.t_ns.tobytes() == want.t_ns.tobytes()
                assert got.payload.tobytes() == want.payload.tobytes()

    def test_stream_times_match_the_log(self):
        script = experiments.fusion_trial_script("tap", "wood", seed=1, duration_s=0.5)
        log = run_scenario(script, frames=[])
        for kind in ModalityKind:
            _, t_ns, offsets = synth.stream_times(script, kind)
            cols = log.stream(stream_id_for(0, kind))
            if kind is ModalityKind.VISUOTACTILE:
                assert len(cols) == 0 and t_ns.size == 30
            else:
                assert np.array_equal(t_ns, cols.t_ns)
                assert np.array_equal(offsets, cols.offsets)

    @pytest.mark.parametrize("frames", [[3, 1], [1, 1], [-1], [30], [0.5], [[1]]])
    def test_bad_frames_rejected(self, frames):
        script = ScenarioScript(seed=0, duration_s=1.0, fingers=(0,), rates=FAST_RATES)
        with pytest.raises(errors.ConfigError):
            run_scenario(script, frames=frames)


class TestPinnedLogDigests:
    """SHA-256 of whole recorded logs for fixed scenarios.

    Any change to synthesis that alters a sample, or the order or size of
    the random draws, shows up here; a change meant to keep the data must
    leave these alone.  Visuotactile frames are counter-keyed
    (``synth._frame_noise``), so these digests also pin Philox's output.  Pinned with numpy 2.4.6 on x86_64; another numpy
    build or CPU may need its own digests.
    """

    def test_fusion_trial(self):
        script = experiments.fusion_trial_script("slide", "silicone", seed=7)
        assert hashlib.sha256(log_to_bytes(run_scenario(script))).hexdigest() == \
            "1917ccd252b38292f5c3fe2962f48f1c8415b07a25dcc73c330f99cec51ed984"

    def test_default_frame_rate_two_fingers(self):
        script = ScenarioScript(
            seed=3, duration_s=0.6, fingers=(0, 1),
            rates={ModalityKind.SURFACE_AUDIO: 8000.0},
            events=[Event(0.1, 0.16, "tap", ObjectSpec("wood"), (0,)),
                    Event(0.2, 0.5, "slide", ObjectSpec("plastic"), (1,))])
        assert hashlib.sha256(log_to_bytes(run_scenario(script))).hexdigest() == \
            "5ecc0184e6b5ad3b6e230b057657866eda54869616fc88e07310d7280e3203c4"


    def test_every_event_kind(self):
        # Tap, slide, stir, hold and approach, a container tap, a hot hold,
        # and gas and heat streams at non-default rates.
        script = ScenarioScript(
            seed=11, duration_s=2.0, fingers=(0, 1),
            rates={ModalityKind.VISUOTACTILE: 30.0,
                   ModalityKind.SURFACE_AUDIO: 8000.0,
                   ModalityKind.GAS: 4.0, ModalityKind.HEAT: 3.0},
            events=[
                Event(0.1, 0.16, "tap", ObjectSpec("wood"), (0,)),
                Event(0.3, 0.8, "slide", ObjectSpec("plastic"), (0,)),
                Event(0.9, 1.4, "stir", ObjectSpec("silicone"), (0,)),
                Event(1.5, 1.9, "hold", ObjectSpec("butter"), (0,)),
                Event(0.1, 1.0, "approach", ObjectSpec("coffee-powder"), (1,)),
                Event(1.2, 1.25, "tap",
                      ObjectSpec("liquid-coffee", fill_fraction=0.5), (1,)),
                Event(1.4, 1.9, "hold",
                      ObjectSpec("liquid-coffee", temperature_c=70.0), (1,))])
        assert hashlib.sha256(log_to_bytes(run_scenario(script))).hexdigest() == \
            "629bc6db806ca3e4eeead21c99795ab0bf530fc73a063283cb7cc1d574033894"

class TestGenRingdown:
    def test_not_a_container(self):
        with pytest.raises(errors.NotAContainer):
            gen_ringdown(ObjectSpec("wood"), 0.5, 0.5)

    def test_fill_lowers_peak_frequency(self):
        # FFT-argmax oracle on the generated signals.
        rate = 48_000.0
        empty = gen_ringdown(ObjectSpec("liquid-coffee", fill_fraction=0.0),
                             0.5, 0.5, rate)
        full = gen_ringdown(ObjectSpec("liquid-coffee", fill_fraction=1.0),
                            0.5, 0.5, rate)
        assert peak_frequency(empty, rate) > peak_frequency(full, rate)

    def test_fill_monotone(self):
        rate = 48_000.0
        peaks = [peak_frequency(
            gen_ringdown(ObjectSpec("liquid-coffee", fill_fraction=f), 0.5,
                         0.5, rate), rate)
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_position_invariant_frequency_distinct_tau(self):
        rate = 48_000.0
        obj = ObjectSpec("liquid-coffee", fill_fraction=0.5)
        a = gen_ringdown(obj, 0.1, 0.6, rate)
        b = gen_ringdown(obj, 0.9, 0.6, rate)
        bin_hz = rate / a.size
        assert abs(peak_frequency(a, rate) - peak_frequency(b, rate)) <= bin_hz
        tau_a = decay_time(a, rate)
        tau_b = decay_time(b, rate)
        assert abs(tau_a - tau_b) / min(tau_a, tau_b) > 0.2

    def test_zero_amplitude(self):
        obj = ObjectSpec("liquid-coffee", fill_fraction=0.5)
        s = gen_ringdown(obj, 0.5, 0.2, amplitude=0.0)
        assert np.all(s == 0.0)


class TestGenGasApproach:
    def test_starts_at_ambient(self):
        obj = ObjectSpec("coffee-powder")
        series = gen_gas_approach(obj, 90.0)
        from touchlab.synth import AMBIENT_GAS
        assert np.allclose(series[0], AMBIENT_GAS, rtol=1e-6)

    def test_converges_to_signature(self):
        obj = ObjectSpec("coffee-powder")
        rng = np.random.default_rng(0)
        series = gen_gas_approach(obj, 600.0, rng=rng)
        from touchlab.synth import GAS_DRIFT, GAS_NOISE
        tail = series[-60:].mean(axis=0)
        sig = obj.gas_target()
        # Mean of the last stretch lies within 2 sigma of the signature.
        sigma = np.sqrt(GAS_DRIFT ** 2 + GAS_NOISE ** 2 / 60)
        assert np.all(np.abs(tail - sig) < 2.0 * sigma + 1e-9)

    def test_asymptote_within_noise_band_at_90s(self):
        # Mean of the last 10% of a 90 s approach lies within 2 sigma of the
        # material signature, every channel.
        from touchlab.synth import GAS_DRIFT, GAS_NOISE

        obj = ObjectSpec("cheese")
        rng = np.random.default_rng(1)
        series = gen_gas_approach(obj, 90.0, rng=rng)
        tail = series[-9:].mean(axis=0)
        sigma = np.sqrt(GAS_DRIFT ** 2 + GAS_NOISE ** 2 / 9)
        assert np.all(np.abs(tail - obj.gas_target()) < 2.0 * sigma)

    def test_separated_signatures_linearly_separable(self):
        # Centroid-distance oracle vs the noise scale.
        rng = np.random.default_rng(2)
        a = [gen_gas_approach(ObjectSpec("coffee-powder"), 90.0, rng=rng)[-30:]
             .mean(axis=0) for _ in range(30)]
        b = [gen_gas_approach(ObjectSpec("rubber"), 90.0, rng=rng)[-30:]
             .mean(axis=0) for _ in range(30)]
        a, b = np.stack(a), np.stack(b)
        mid = 0.5 * (a[:, 0].mean() + b[:, 0].mean())
        labels_ok = np.concatenate([(a[:, 0] < mid), (b[:, 0] >= mid)])
        assert labels_ok.mean() >= 0.95


class TestGenVisuotactile:
    def test_no_contacts_pure_background(self):
        img = gen_visuotactile([])
        img2 = gen_visuotactile([])
        assert np.array_equal(img.values, img2.values)
        assert img.values.shape == (120, 120, 3)

    def test_contact_deviation_exceeds_noise(self):
        # Pixel-statistics oracle: imprint deviation >> recorded frame noise.
        noise_sigma = DEFAULT_NOISE[ModalityKind.VISUOTACTILE] / 255.0
        bg = gen_visuotactile([]).values
        img = gen_visuotactile([Imprint(0.0, 0.0, depth=0.6)]).values
        delta = np.abs(img - bg).mean(axis=2)
        assert delta.max() > 3.0 * noise_sigma

    def test_recorded_hold_frames_are_this_model_plus_noise(self):
        # A hold keeps one imprint still, so the mean of its recorded frames
        # is the noiseless frame up to noise and uint8 truncation (-0.5).
        script = ScenarioScript(
            seed=3, duration_s=1.0, fingers=(1,), rates=FAST_RATES,
            events=[Event(0.0, 1.0, "hold", ObjectSpec("silicone"), (1,))])
        frames = run_scenario(script).stream(
            stream_id_for(1, ModalityKind.VISUOTACTILE)).payload
        draws = np.random.default_rng(np.random.SeedSequence((3, 0xE7, 0)))
        draws.uniform(0.6, 1.4), draws.uniform(0.75, 1.25)
        depth = synth.MATERIALS["silicone"].imprint_depth * draws.uniform(0.7, 1.3)
        want = 255.0 * gen_visuotactile([Imprint(-0.1, 0.0, depth=depth)]).values
        bg = 255.0 * gen_visuotactile([]).values
        lit = want > 20.0
        got = frames.mean(axis=0) + 0.5
        assert np.abs(got - want)[lit].max() < 2.0
        assert np.abs(bg - want)[lit].max() > 20.0

    def test_overlapping_imprints_multiply(self):
        # Each imprint passes a share of the light the other one left.
        a, b = Imprint(-0.05, 0.0, depth=0.9), Imprint(0.05, 0.0, depth=0.9)
        bg = gen_visuotactile([]).values
        lit = bg > 0.05
        share = [gen_visuotactile(c).values[lit] / bg[lit] for c in ([a], [b], [a, b])]
        assert np.allclose(share[2], share[0] * share[1], rtol=0, atol=1e-12)

    def test_two_contacts_two_regions(self):
        # Connected-components oracle on the relative deviation map (the
        # imprint attenuates the background multiplicatively).
        bg = gen_visuotactile([]).values
        img = gen_visuotactile([Imprint(-0.45, 0.0, depth=0.7),
                                Imprint(0.45, 0.0, depth=0.7)]).values
        rel = np.abs(img - bg).mean(axis=2) / (bg.mean(axis=2) + 1e-9)
        mask = rel > 0.3 * rel.max()
        assert optics.count_components(mask) == 2

    def test_contact_outside_surface(self):
        with pytest.raises(errors.ContactOutsideSurface):
            Imprint(0.9, 0.9)


ROOT = Path(__file__).resolve().parents[1]


def background_recipe() -> np.ndarray:
    """The render behind ``touchlab/background.npy``, three channels: the
    fingertip's reflective layer (Gaussian 22 deg), 200,000 photons, seed
    0xB6, normalized to mean 0.5 over the lit taxels of all three channels.
    The file stores channel 0."""
    img = optics.render(optics.ScatterSurface.gaussian(22.0),
                        photons=200_000, seed=0xB6).values
    mean = img[img > 0].mean() if np.any(img > 0) else 1.0
    return np.clip(img / (2.0 * mean), 0.0, 1.0)


class TestBackground:
    """The illumination background ships as package data; making frames
    renders nothing."""

    def test_stored_file_is_the_recipe(self):
        want = background_recipe()
        buf = io.BytesIO()
        np.save(buf, want[:, :, 0])
        assert Path(synth.__file__).with_name("background.npy").read_bytes() \
            == buf.getvalue(), (
                "regenerate with: PYTHONPATH=src:tests python -c \"import numpy as np, "
                "test_synth; np.save('src/touchlab/background.npy', "
                "test_synth.background_recipe()[:, :, 0])\"")
        assert synth._background().tobytes() == want.tobytes()

    def test_read_only(self):
        before = gen_visuotactile([]).values
        bg = synth._background()
        with pytest.raises(ValueError):
            bg[60, 60, 0] = 0.0
        with pytest.raises(ValueError):
            bg *= 2.0
        assert gen_visuotactile([]).values.tobytes() == before.tobytes()

    def test_frames_render_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a frame rendered the background")

        monkeypatch.setattr(optics, "render", refuse)
        monkeypatch.setattr(pool, "worker_count", lambda: 1)
        synth._background.cache_clear()
        script = ScenarioScript(seed=0, duration_s=0.2, fingers=(0,))
        frames = run_scenario(script).stream(
            stream_id_for(0, ModalityKind.VISUOTACTILE)).payload
        assert len(frames) == 48
        assert gen_visuotactile([]).values.shape == (120, 120, 3)

    def test_data_files_are_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        package = ROOT / "src" / "touchlab"
        globs = package_data.get("touchlab", []) + package_data.get("*", [])
        shipped = {p for g in globs for p in package.glob(g)}
        data = [p for p in package.rglob("*") if p.is_file() and p.suffix != ".py"
                and "__pycache__" not in p.parts]
        assert data and [p for p in data if p not in shipped] == []


class TestObjectSpec:
    def test_unknown_material(self):
        with pytest.raises(ValueError):
            ObjectSpec("adamantium")

    def test_fill_fraction_range(self):
        with pytest.raises(ValueError):
            ObjectSpec("liquid-coffee", fill_fraction=1.5)

    def test_ringdown_frequency_model(self):
        assert ring_frequency(0.0) == pytest.approx(800.0)
        assert ring_frequency(1.0) == pytest.approx(800.0 * 0.7)
        assert ring_tau_s(0.9) > ring_tau_s(0.1)
