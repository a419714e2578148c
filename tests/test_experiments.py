import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from touchlab import errors, experiments
from touchlab.core import ModalityKind
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
        assert len(data.label_names) == 6

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

    def test_confusion_matrix_sums(self):
        data = make_gas_dataset(n_per_material=10, duration_s=30.0, seed=1)
        res = gas_experiment(data, 30.0, seed=1)
        assert res.confusion.sum() == res.n_test

    def test_confusion_csv(self):
        from touchlab.experiments import confusion_csv
        text = confusion_csv(np.array([[3, 1], [0, 4]]), ("a", "b"))
        lines = text.strip().split("\n")
        assert lines[0] == "truth\\predicted,a,b"
        assert lines[1] == "a,3,1"
        assert lines[2] == "b,0,4"


@pytest.fixture(scope="module")
def windows():
    return list(iter_fusion_windows(trials_per_class=1, seed=0,
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
        (FINGER_DEPENDENT, MODALITY_NAMES, False,
         "a6d3aa8263b76968e22e9e950cb6a740f37f361c8e1d61c6f035eb369890c079"),
        (FINGER_DEPENDENT, ("visuotactile",), False,
         "c7a76fb0dedd532acfc194346770cf10a5d7cffb74e9e1e9f6a56581298b1a1a"),
        (FINGER_DEPENDENT, ("audio",), False,
         "b890c4de7d6dc50587c4bec8db2b1f8fad4e55f075e3b41964f2fa9d84d481ee"),
        (FINGER_DEPENDENT, ("inertial",), False,
         "e32582b56c7ffe1f75a0c59f903e3ede6329615be56d8cbc255570ba29a26e7f"),
        (FINGER_DEPENDENT, ("pressure",), False,
         "02d87262c622bc0d65fe69aaa803f6b851cedd2c7ffd552dc0789c359389dc8a"),
        (FINGER_INDEPENDENT, ("pressure",), False,
         "7b72f9774e91bb143cfb56c15488335a63ef56109addb3805bd3562537d580bf"),
        (FINGER_DEPENDENT, MODALITY_NAMES, True,
         "e98b88e7c9d883baa624f1123d921a1b8b2e345a30c5fd12b3dba240c9c1aa1f"),
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
            "af335838bdd3f6a0d0eb7091f2197e72f58a323624070306a935f9613ab21a76",
            "d47f192e19d941d1eabb656ebff59e915767493d6cbf1dca558b4c2c438e6652",
            "aec7f6ea8b07fc61ad5c9775be36a60efe706ca8b96e6bcf3205c4993068e0cd",
            "4c5a7110e4f7b0695ecb4f4cf8c6cb5548cbb07bc16dbfee44a215b118d33ac1"]),
        (("pressure",), [
            "ea2df6ff0276aca081680ce4ba762b4cb2ba0e342e50568c345544b916bb93bf",
            "97671a787eab3161dda19f4cac91f086b0c9d18fca5519e01f247b72c04e4f65",
            "4fbd6b883583312bec9fbc9a17f41a335d0775014096aefc302b1327e7b0d3bf",
            "da43a009b5604251fb93794cba08e8980b0e49ca408171ed14d00e1db0326b23"]),
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
