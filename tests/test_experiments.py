import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from touchlab import errors, experiments, pool, synth
from touchlab.core import ModalityKind, stream_id_for
from touchlab.dsp import build_windows
from touchlab.experiments import (
    FINGER_DEPENDENT,
    FINGER_INDEPENDENT,
    MODALITY_NAMES,
    analyze_liquid,
    classify_fill,
    encode_window,
    find_tap_episodes,
    fusion_experiment,
    gas_experiment,
    iter_fusion_windows,
    make_gas_dataset,
)
from touchlab.synth import Event, ObjectSpec, ScenarioScript, run_scenario

FAST_RATES = {ModalityKind.VISUOTACTILE: 30.0,
              ModalityKind.SURFACE_AUDIO: 16_000.0}


class TestGasExperiment:
    def test_dataset_shapes(self):
        data = make_gas_dataset(n_per_material=5, duration_s=30.0, seed=0)
        assert len(data.series) == 30
        assert all(s.shape == (30, 4) for s in data.series)
        assert np.array_equal(data.labels, np.repeat(np.arange(6), 5))

    def test_full_integration_accuracy(self):
        data = make_gas_dataset(n_per_material=40, duration_s=90.0, seed=0)
        res = gas_experiment(data, 90.0, seed=0)
        assert res.accuracy >= 0.90

    def test_short_integration_between_chance_and_full(self):
        data = make_gas_dataset(n_per_material=40, duration_s=90.0, seed=0)
        full = gas_experiment(data, 90.0, seed=0).accuracy
        short = gas_experiment(data, 6.0, seed=0).accuracy
        assert 1.0 / 6.0 < short < full

    def test_integration_beyond_duration_rejected(self):
        data = make_gas_dataset(n_per_material=4, duration_s=10.0, seed=0)
        with pytest.raises(ValueError):
            gas_experiment(data, 20.0)

    def test_no_test_rows_is_empty(self):
        data = make_gas_dataset(n_per_material=1, duration_s=10.0, seed=0)
        with pytest.raises(errors.EmptyDataset):
            gas_experiment(data, 6.0)

    def test_no_approaches_rejected(self):
        with pytest.raises(errors.ConfigError):
            make_gas_dataset(n_per_material=0)
        with pytest.raises(errors.ConfigError):
            make_gas_dataset(n_per_material=2, duration_s=0.0)

    @pytest.mark.parametrize("times", [[], [0.0], [-5.0], [float("nan")],
                                       [float("inf")], [6.0, 30.5]])
    def test_check_integration_times_rejects(self, times):
        with pytest.raises(errors.ConfigError):
            experiments.check_integration_times(times, 30.0)

    def test_check_integration_times_accepts_the_duration(self):
        experiments.check_integration_times([0.5, 30.0], 30.0)

    @pytest.mark.parametrize("t", [0.0, -5.0, float("nan"), float("inf")])
    def test_non_positive_or_nan_integration_rejected(self, t):
        data = make_gas_dataset(n_per_material=2, duration_s=10.0, seed=0)
        with pytest.raises(errors.ConfigError):
            gas_experiment(data, t)

    def test_pinned_dataset_digest(self):
        # SHA-256 of every approach series and label for a fixed seed.
        data = make_gas_dataset(n_per_material=3, duration_s=20.0, seed=4)
        h = hashlib.sha256()
        for s in data.series:
            h.update(np.ascontiguousarray(s, dtype="<f8").tobytes())
        h.update(np.asarray(data.labels, dtype="<i8").tobytes())
        assert h.hexdigest() == \
            "ea8eeebf4c993f2917559f5335a2f0aa84807f91cc5c9d53306f272910d853e7"

    def test_pinned_sweep_digest(self):
        # SHA-256 of every seed's accuracy at every integration time.
        sweep = experiments.gas_integration_sweep(
            (6.0, 15.0, 30.0, 60.0, 90.0), n_seeds=3, n_per_material=10)
        assert hashlib.sha256(sweep["per_seed"].tobytes()).hexdigest() == \
            "09e09ff08c320fbd181220cc9a12881d28c5b53147490e9db879ab45f02ac1dc"

    def test_confusion_matrix_sums(self):
        data = make_gas_dataset(n_per_material=10, duration_s=30.0, seed=1)
        res = gas_experiment(data, 30.0, seed=1)
        assert res.confusion.sum() == res.n_test

    def test_confusion_equals_pair_count_loop(self):
        from touchlab.experiments import _confusion
        truth, pred = np.random.default_rng(0).integers(0, 4, size=(2, 200))
        want = np.zeros((4, 4), dtype=np.int64)
        for t, p in zip(truth, pred):
            want[t, p] += 1
        got = _confusion(truth, pred, 4)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_confusion_csv(self):
        from touchlab.experiments import confusion_csv
        text = confusion_csv(np.array([[3, 1], [0, 4]]), ("a", "b"))
        lines = text.strip().split("\n")
        assert lines[0] == "truth\\predicted,a,b"
        assert lines[1] == "a,3,1"
        assert lines[2] == "b,0,4"


@pytest.fixture(scope="module")
def windows():
    # Two trials per class leave finger-dependent fits a validation row
    # per stratum, so the learning-rate grid trains.
    return list(iter_fusion_windows(trials_per_class=2, seed=0,
                                    duration_s=2.0, stride_s=0.665))


class TestFusionExperiment:

    def test_runs_both_modes(self, windows):
        dep = fusion_experiment(windows, mode=FINGER_DEPENDENT, max_epochs=40)
        ind = fusion_experiment(windows, mode=FINGER_INDEPENDENT, max_epochs=40)
        assert 0.0 <= dep.action_accuracy <= 1.0
        assert ind.n_test > dep.n_test

    def test_modality_subset(self, windows):
        res = fusion_experiment(windows, modalities=("pressure",), max_epochs=40)
        assert res.modalities == ("pressure",)

    def test_unknown_modality(self, windows):
        with pytest.raises(errors.MissingModality):
            fusion_experiment(windows, modalities=("sonar",))

    def test_empty_windows(self):
        with pytest.raises(errors.EmptyDataset):
            fusion_experiment([])

    def test_bare_windows_rejected(self, windows):
        # Bare windows carry no trial, so windows of different trials
        # would collide on their start time.
        with pytest.raises(errors.ConfigError):
            fusion_experiment([w for _, w in windows], max_epochs=1)

    def test_encoders_shapes(self, windows):
        enc = encode_window(windows[0][1])
        assert enc["visuotactile"].shape == (48,)
        assert enc["audio"].shape == (72,)
        assert enc["inertial"].shape == (18,)
        assert enc["pressure"].shape == (20,)

    def test_confusion_matrices(self, windows):
        res = fusion_experiment(windows, max_epochs=40)
        assert res.confusion_action.sum() == res.n_test
        assert res.confusion_material.sum() == res.n_test

    def test_finger_dependent_fit_trains_the_grid(self, windows, monkeypatch):
        configs = []
        train = experiments.nn.train

        def recorded(dataset, spec, config):
            configs.append(config)
            return train(dataset, spec, config)

        monkeypatch.setattr(experiments.nn, "train", recorded)
        fusion_experiment(windows, mode=FINGER_DEPENDENT, max_epochs=5)
        assert len(configs) == 2 and configs[0].lr == experiments.LR_GRID


def window_bytes(w):
    return (w.visuotactile.tobytes(), w.inertial.tobytes(), w.pressure.tobytes(),
            w.audio.tobytes(), w.action_label, w.material_label, w.finger_id,
            w.window_start_ns)


class TestLazyFrames:
    """Windows from logs that hold only the frames they read are byte-equal
    to the windows cut from the full logs."""

    def test_fusion_trials(self, monkeypatch):
        made = []
        run = synth.run_scenario

        def recorded(script, frames=None):
            log = run(script, frames=frames)
            made.append((script, log))
            return log

        # One worker: the recording wrapper sees only this process's calls.
        monkeypatch.setattr(pool, "worker_count", lambda: 1)
        monkeypatch.setattr(synth, "run_scenario", recorded)
        lazy = list(iter_fusion_windows(trials_per_class=1, seed=3))
        monkeypatch.undo()
        n_fingers = len(synth.FINGERS)
        assert len(made) == 9 * n_fingers  # one run per (trial, finger)
        for i, (script, log) in enumerate(made):
            assert script.fingers == (synth.FINGERS[i % n_fingers],)
            assert len(log.stream(stream_id_for(script.fingers[0],
                                                ModalityKind.VISUOTACTILE))) == 30
        for trial in range(9):
            script = dataclasses.replace(made[trial * n_fingers][0],
                                         fingers=synth.FINGERS)
            action, material = script.events[0].kind, script.events[0].obj.material
            full = build_windows(run_scenario(script), stride_s=0.665,
                                 labels={"action": action, "material": material})
            got = [w for t, w in lazy if t == trial]
            assert [window_bytes(w) for w in got] == [window_bytes(w) for w in full]

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), duration=st.floats(1.4, 3.0),
           stride=st.floats(0.3, 1.4), fps=st.sampled_from([30.0, 60.0, 240.0]),
           audio_hz=st.sampled_from([8000.0, 16000.0]), two=st.booleans())
    def test_random_rates_and_strides(self, seed, duration, stride, fps, audio_hz, two):
        script = ScenarioScript(
            seed=seed, duration_s=duration, fingers=(0, 2) if two else (1,),
            rates={ModalityKind.VISUOTACTILE: fps, ModalityKind.SURFACE_AUDIO: audio_hz},
            events=[Event(0.2, duration - 0.2, "slide" if two else "stir",
                          ObjectSpec("plastic"))])
        frames = experiments.sampled_frames(script, stride)
        full = build_windows(run_scenario(script), stride_s=stride)
        lazy = build_windows(run_scenario(script, frames=frames), stride_s=stride)
        assert full
        assert [window_bytes(w) for w in lazy] == [window_bytes(w) for w in full]
        assert frames.size <= 2 + 10 * len(full) // len(script.fingers)


def mean_gray_visuotactile(vt):
    """The reference visuotactile encoder: gray as the float64 mean over
    the channel axis."""
    gray = vt.astype(np.float64).mean(axis=3) / 255.0
    pooled = experiments._pool2d(gray)
    motion = np.abs(np.diff(pooled, axis=0)).mean(axis=0)
    return np.concatenate([pooled.mean(axis=0).ravel(),
                           pooled.std(axis=0).ravel(),
                           motion.ravel()])


@settings(max_examples=60, deadline=None)
@given(vt=hnp.arrays(np.uint8, st.tuples(st.integers(2, 12), st.integers(4, 40),
                                         st.integers(4, 40), st.just(3))))
def test_visuotactile_encoding_matches_channel_mean(vt):
    assert experiments.encode_visuotactile(vt).tobytes() == \
        mean_gray_visuotactile(vt).tobytes()


def fresh(windows):
    """New instances of the same windows, with empty feature memos."""
    return [(trial, dataclasses.replace(w)) for trial, w in windows]


class TestFeatureMemo:
    FAST = {"max_epochs": 5}

    @pytest.fixture
    def vt_calls(self, monkeypatch):
        calls = Counter()
        encode = experiments.ENCODERS["visuotactile"]

        def counted(w):
            calls[id(w)] += 1
            return encode(w)

        monkeypatch.setitem(experiments.ENCODERS, "visuotactile", counted)
        return calls

    def test_visuotactile_encoded_once_per_window(self, windows, vt_calls):
        ws = fresh(windows)
        fusion_experiment(ws, **self.FAST)
        fusion_experiment(ws, modalities=("pressure",), **self.FAST)
        fusion_experiment(ws, mode=FINGER_INDEPENDENT, modalities=("pressure",),
                          **self.FAST)
        fusion_experiment(ws, shuffle_labels=True, **self.FAST)
        assert set(vt_calls) == {id(w) for _, w in ws}
        assert set(vt_calls.values()) == {1}

    def test_pressure_only_never_encodes_visuotactile(self, windows, vt_calls):
        ws = fresh(windows)
        fusion_experiment(ws, modalities=("pressure",), **self.FAST)
        fusion_experiment(ws, mode=FINGER_INDEPENDENT, modalities=("pressure",),
                          **self.FAST)
        assert not vt_calls
        assert all(set(w._features) == {"pressure"} for _, w in ws)

    def test_memo_matches_encode_window(self, windows):
        ws = fresh(windows)
        fusion_experiment(ws, modalities=("pressure", "audio"), **self.FAST)
        fusion_experiment(ws, **self.FAST)
        for _, w in ws:
            want = encode_window(w)
            assert list(w._features) == ["pressure", "audio", "visuotactile",
                                         "inertial"]
            for m, vec in w._features.items():
                assert not vec.flags.writeable
                assert vec.dtype == want[m].dtype and vec.shape == want[m].shape
                assert vec.tobytes() == want[m].tobytes()


class TestPinnedFusionDigests:
    """SHA-256 of every reported ``FusionResult`` field for a fixed window set.

    A change to feature encoding, row assembly or training that alters any
    accuracy, the selected learning rate, the split sizes or a confusion
    matrix shows up here; a change meant to keep the fits must leave these
    alone.  The fits go through BLAS matrix products, so another numpy build
    or CPU may need its own digests.
    """

    @staticmethod
    def digest(r):
        h = hashlib.sha256(repr((r.action_accuracy, r.material_accuracy, r.lr,
                                 r.n_train, r.n_test)).encode())
        h.update(np.ascontiguousarray(r.confusion_action).tobytes())
        h.update(np.ascontiguousarray(r.confusion_material).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("mode,modalities,shuffle,want", [
        pytest.param(
            FINGER_DEPENDENT, MODALITY_NAMES, False,
            "85855de9cb89aafe399de701539cea9cfab4c6b51e511dfc80f9ec0881b74610",
            id="dependent-all"),
        pytest.param(
            FINGER_DEPENDENT, ("visuotactile",), False,
            "ff607bf3bae89de8e0bf6ab567d52768ea973e21606200fa90a9ec001242072d",
            id="dependent-visuotactile"),
        pytest.param(
            FINGER_DEPENDENT, ("audio",), False,
            "0ca8269c2b29b6ddcf777639c7017ba0b638d1cc5219520dc9bdd8f2da04b009",
            id="dependent-audio"),
        pytest.param(
            FINGER_DEPENDENT, ("inertial",), False,
            "b7acf5622cdb785f1bc10c660d4c182960895b33261dd9f76790735a825f1b77",
            id="dependent-inertial"),
        pytest.param(
            FINGER_DEPENDENT, ("pressure",), False,
            "8a56864f36fe403c21ae8b4eb5bbce1606e9cafcbadd604c22e02e0d2fe1aae1",
            id="dependent-pressure"),
        pytest.param(
            FINGER_INDEPENDENT, ("pressure",), False,
            "9063cb407062e959386893ea693a0d00fae9c327e236c5c0102b41f260fe3da9",
            id="independent-pressure"),
        pytest.param(
            FINGER_DEPENDENT, MODALITY_NAMES, True,
            "c1441f08b07dc8af4a1264d1e1f83dd19b18694ac7b7bf464951d994ebfa7765",
            id="dependent-all-shuffled"),
    ])
    def test_fit(self, windows, mode, modalities, shuffle, want):
        res = fusion_experiment(windows, mode=mode, modalities=modalities,
                                max_epochs=40, shuffle_labels=shuffle)
        assert self.digest(res) == want


def fit_digest(params, losses) -> str:
    """SHA-256 over a fit's parameters (layer by layer, weight then bias,
    float64 little-endian) followed by its per-epoch losses."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    h.update(np.asarray(losses, dtype="<f8").tobytes())
    return h.hexdigest()


class TestPinnedFitDigests:
    """Bit identity of the trained networks themselves, not only of the
    accuracies they reach: every fit ``fusion_experiment`` makes (each
    learning-rate candidate, then the final fit, with the trunk layers
    before the action and material heads) and the gas classifier.  Like
    ``TestPinnedFusionDigests`` these go through BLAS, so another numpy
    build or CPU may need its own digests."""

    @pytest.fixture
    def fusion_fits(self, monkeypatch):
        fits = []
        train = experiments.nn.train

        def recorded(*args, **kwargs):
            res = train(*args, **kwargs)
            params = np.atleast_2d(res.model.params)
            losses = np.asarray(res.losses).reshape(len(res.losses), -1)
            for r in range(params.shape[0]):  # stacked candidates in turn
                fits.append(fit_digest([params[r]], losses[:, r]))
            return res

        monkeypatch.setattr(experiments.nn, "train", recorded)
        return fits

    @pytest.mark.parametrize("modalities,want", [
        (MODALITY_NAMES, [
            "160592fb459800f58864a09cefce2a45733000c31f74cf5f91c44043c6fcf341",
            "ffd55d98386839976f2a56674735d18a8b0eece0c4729465db8e2f13baf5ef0a",
            "cdf5f04e367c8b4b99fb01d2674be17410ec5baf832d051a837eb006f96be94b",
            "b5fd3187f240b664c331684b38b74ef762d5946ae93bcc7353cdce6b3bfa0c66"]),
        (("pressure",), [
            "15d1f9fa16125576235294d158d6c44d2357a8b5b7867508eb3cbf9187f8e18c",
            "98e0cf59dd3f92b694787ff8598d9ba2846ba867fb60037972e4d25be74b75a4",
            "aa31226f18d905626dd6e55239f4eac5ebe202e7bd1619f1932a3ec530066296",
            "b5af748795732b28a49e9e3054aeaf975c7e4a0af43c433635028cc31106cfeb"]),
    ], ids=["all", "pressure"])
    def test_fusion_fits(self, windows, fusion_fits, modalities, want):
        fusion_experiment(windows, mode=FINGER_INDEPENDENT,
                          modalities=modalities, max_epochs=40)
        assert fusion_fits == want

    def test_gas_fit(self, monkeypatch):
        fits = []
        train = experiments.nn.train

        def recorded(*args, **kwargs):
            res = train(*args, **kwargs)
            params = [p for wb in zip(res.model.weights, res.model.biases)
                      for p in wb]
            fits.append(fit_digest(params, res.losses))
            return res

        monkeypatch.setattr(experiments.nn, "train", recorded)
        data = make_gas_dataset(n_per_material=10, duration_s=30.0, seed=2)
        gas_experiment(data, 20.0, seed=2, max_epochs=80)
        assert fits == [
            "838129b4a96e87d977b161bde9c037ada33bfaee04f1c7c5965c0604e749629c"]


def make_bottle_log(fill, seed=0, finger=0, taps=(0.4, 1.0, 1.6)):
    obj = ObjectSpec("liquid-coffee", fill_fraction=fill)
    events = [Event(t, t + 0.05, "tap", obj, (finger,)) for t in taps]
    script = ScenarioScript(seed=seed, duration_s=2.2, events=events,
                            fingers=(finger,),
                            rates={ModalityKind.VISUOTACTILE: 30.0,
                                   ModalityKind.SURFACE_AUDIO: 48_000.0})
    return run_scenario(script)


class TestLiquidLevel:
    def test_three_fills_classified(self):
        for fill, name in ((0.0, "empty"), (0.5, "half"), (1.0, "full")):
            log = make_bottle_log(fill, seed=3)
            taps = analyze_liquid(log)
            assert len(taps) == 3
            assert all(t.predicted_fill == name for t in taps)

    def test_pinned_features(self):
        # SHA-256 of every tap's features at the three fill levels of the
        # liquid-level criterion.
        taps = [analyze_liquid(make_bottle_log(fill, seed=3))
                for fill in (0.0, 0.5, 1.0)]
        text = repr([[(t.t_start_s, t.peak_hz, t.tau_s, t.predicted_fill)
                      for t in fill] for fill in taps])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "7b3ba6a14ae8360218911c151c479d7fd73b79f70660db1e43de39f3cbf84faf"

    def test_full_peak_below_empty_peak(self):
        f_empty = np.mean([t.peak_hz for t in analyze_liquid(make_bottle_log(0.0))])
        f_full = np.mean([t.peak_hz for t in analyze_liquid(make_bottle_log(1.0))])
        assert f_full < f_empty

    def test_no_taps_found(self):
        script = ScenarioScript(seed=0, duration_s=1.0, events=[], fingers=(0,),
                                rates=FAST_RATES)
        with pytest.raises(errors.NoTapsFound):
            analyze_liquid(run_scenario(script))

    def test_position_invariance_and_tau_contrast(self):
        log_near = make_bottle_log(0.5, seed=5, finger=0)
        log_far = make_bottle_log(0.5, seed=5, finger=3)
        taps_near = analyze_liquid(log_near, finger_id=0)
        taps_far = analyze_liquid(log_far, finger_id=3)
        f_near = np.mean([t.peak_hz for t in taps_near])
        f_far = np.mean([t.peak_hz for t in taps_far])
        assert abs(f_near - f_far) <= 4.0
        tau_near = np.mean([t.tau_s for t in taps_near])
        tau_far = np.mean([t.tau_s for t in taps_far])
        assert abs(tau_near - tau_far) / min(tau_near, tau_far) > 0.2

    def test_classify_fill_centroids(self):
        assert classify_fill(800.0) == "empty"
        assert classify_fill(680.0) == "half"
        assert classify_fill(560.0) == "full"

    def test_find_tap_episodes(self):
        rate = 48_000.0
        t = np.arange(int(2.0 * rate)) / rate
        x = 0.001 * np.sin(2 * np.pi * 50 * t)
        for t0 in (0.5, 1.3):
            sel = (t >= t0) & (t < t0 + 0.2)
            x[sel] += np.exp(-(t[sel] - t0) / 0.05) * np.sin(
                2 * np.pi * 700 * (t[sel] - t0))
        episodes = find_tap_episodes(x, rate)
        assert len(episodes) == 2

    def test_find_tap_episodes_matches_loop(self, monkeypatch):
        """Episodes against the per-sample loop they replaced.  With the
        Hilbert envelope stubbed out and a rate below 500 Hz (a one-sample
        smoothing window), a 0/1 signal that is mostly 0 is its own
        above-threshold mask."""
        import scipy.signal

        def loop(above, min_gap):
            episodes, i, n = [], 0, above.size
            while i < n:
                if above[i]:
                    j, quiet = i, 0
                    while j < n and quiet < min_gap:
                        quiet = quiet + 1 if not above[j] else 0
                        j += 1
                    episodes.append((i, min(j, n)))
                    i = j
                else:
                    i += 1
            return episodes

        monkeypatch.setattr(scipy.signal, "hilbert", lambda x: x)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            mask = rng.random(int(rng.integers(1, 120))) < rng.uniform(0.0, 0.45)
            if np.median(mask) > 0:
                continue
            min_gap = int(rng.integers(1, 12))
            rate = 10.0 * min_gap + 5.0  # int(TAP_MIN_GAP_S * rate) == min_gap
            assert find_tap_episodes(mask.astype(float), rate) == loop(mask, min_gap)

    def test_find_tap_episodes_below_10_hz(self, time_limit):
        # Below 10 Hz the 0.1 s quiet gap is zero samples long; every
        # above-threshold sample is then an episode of its own.
        with time_limit(10):
            episodes = find_tap_episodes(np.eye(1, 64, 30)[0], 9.0)
        assert episodes
        assert all(a < b and b == a + 1 for a, b in episodes)
