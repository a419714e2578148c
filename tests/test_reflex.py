import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from touchlab import errors
from touchlab.link import DEVICE_PATH, HOST_PATH, StageModel
from touchlab.reflex import (
    ACTION_ISSUED,
    CONTACT_DETECTED,
    DEBOUNCE_MS,
    IDLE,
    REFLEX_PATHS,
    ContactDetector,
    ReflexStateMachine,
    reflex_benchmark,
)


class TestStateMachine:
    def test_full_cycle(self):
        arc = ReflexStateMachine()
        assert arc.state == IDLE
        arc.on_contact(100)
        assert arc.state == CONTACT_DETECTED
        cmd = arc.on_action(250)
        assert arc.state == ACTION_ISSUED
        assert cmd.issue_t_ns == 250
        arc.reset()
        assert arc.state == IDLE

    def test_action_requires_contact(self):
        arc = ReflexStateMachine()
        with pytest.raises(ValueError):
            arc.on_action(10)

    def test_action_cannot_precede_event(self):
        arc = ReflexStateMachine()
        arc.on_contact(100)
        with pytest.raises(ValueError):
            arc.on_action(50)

    def test_invalid_transition_is_a_touchlab_error(self):
        arc = ReflexStateMachine()
        with pytest.raises(errors.InvalidTransition) as info:
            arc.reset()
        assert isinstance(info.value, errors.TouchlabError)
        assert isinstance(info.value, ValueError)
        assert arc.state == IDLE

    def test_random_sequences_never_skip_states(self):
        # Drive the machine with random operations; invalid transitions must
        # raise and the state must stay consistent.
        rng = np.random.default_rng(0)
        arc = ReflexStateMachine()
        t = 0
        for _ in range(2000):
            op = rng.integers(0, 3)
            t += int(rng.integers(1, 100))
            try:
                if op == 0:
                    arc.on_contact(t)
                elif op == 1:
                    arc.on_action(t)
                else:
                    arc.reset()
            except ValueError:
                continue
            assert arc.state in (IDLE, CONTACT_DETECTED, ACTION_ISSUED)
            if arc.state == ACTION_ISSUED:
                assert arc.t_event is not None
                assert arc.t_action >= arc.t_event


class TestContactDetector:
    def test_baseline_noise_no_event(self):
        rng = np.random.default_rng(1)
        det = ContactDetector(threshold=0.05)
        events = [det.update(k / 1000.0, rng.normal(0, 0.005, size=4))
                  for k in range(2000)]
        assert all(e is None for e in events)

    def test_tap_detected_within_window(self):
        rng = np.random.default_rng(2)
        det = ContactDetector(threshold=0.05)
        t0 = 0.5
        hits = []
        for k in range(2000):
            t = k / 1000.0
            v = rng.normal(0, 0.005, size=4)
            if t >= t0:
                v = v + 0.25 * np.exp(-(t - t0) / 0.03)
            e = det.update(t, v)
            if e is not None:
                hits.append(e)
        assert len(hits) == 1
        assert t0 <= hits[0] <= t0 + DEBOUNCE_MS / 1e3 + 1e-3

    def test_two_taps_two_events(self):
        det = ContactDetector(threshold=0.05)
        hits = []
        for k in range(3000):
            t = k / 1000.0
            v = np.zeros(4)
            for t0 in (0.5, 1.5):
                if t0 <= t < t0 + 0.05:
                    v += 0.3
            e = det.update(t, v)
            if e is not None:
                hits.append(e)
        assert len(hits) == 2

    def test_one_event_per_episode_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            det = ContactDetector(threshold=0.05)
            t0 = rng.uniform(0.1, 0.4)
            dur = rng.uniform(0.02, 0.2)
            hits = 0
            for k in range(800):
                t = k / 1000.0
                v = rng.normal(0, 0.005, size=4)
                if t0 <= t < t0 + dur:
                    v = v + rng.uniform(0.1, 0.5)
                if det.update(t, v) is not None:
                    hits += 1
            assert hits == 1


class TestReflexBenchmark:
    def test_device_mean(self):
        res = reflex_benchmark("device", n_trials=1000, seed=0)
        assert res.stats["mean"] == pytest.approx(1200.0, rel=0.15)

    def test_host_mean(self):
        res = reflex_benchmark("host", n_trials=1000, seed=0)
        assert res.stats["mean"] == pytest.approx(2500.0, rel=0.15)

    def test_legacy_exceeds_6ms(self):
        res = reflex_benchmark("legacy", n_trials=1000, seed=0)
        assert res.stats["mean"] > 6000.0

    def test_device_jitter_below_host(self):
        dev = reflex_benchmark("device", n_trials=2000, seed=1)
        host = reflex_benchmark("host", n_trials=2000, seed=1)
        assert dev.stats["std"] < host.stats["std"]

    def test_matched_trial_dominance(self):
        dev = reflex_benchmark("device", n_trials=500, seed=2)
        host = reflex_benchmark("host", n_trials=500, seed=2)
        assert np.all(dev.latencies_us < host.latencies_us)

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            reflex_benchmark("device", n_trials=10)

    def test_unknown_path_is_config_error(self):
        with pytest.raises(errors.ConfigError):
            reflex_benchmark("satellite", n_trials=100)

    def test_determinism(self):
        a = reflex_benchmark("host", n_trials=200, seed=3)
        b = reflex_benchmark("host", n_trials=200, seed=3)
        assert np.array_equal(a.latencies_us, b.latencies_us)


class TestReflexPaths:
    """Reflex paths are link paths plus reflex workloads."""

    def test_paths_reuse_link_stages(self):
        device, _ = REFLEX_PATHS["device"]
        host, _ = REFLEX_PATHS["host"]
        legacy, _ = REFLEX_PATHS["legacy"]
        assert device == DEVICE_PATH
        assert legacy == HOST_PATH
        assert host == replace(HOST_PATH, transfer=StageModel(250.0, 0.10))

    def test_workloads(self):
        got = {name: (w.inference_us, w.rate_hz)
               for name, (_, w) in REFLEX_PATHS.items()}
        assert got == {"device": (20.0, 1000.0), "host": (200.0, 1000.0),
                       "legacy": (200.0, 60.0)}


class TestPinnedReflexDigests:
    """SHA-256 of criterion 02's inputs, 2,000 trial latencies per path at
    seed 0, and of the statistics of 500 trials.  Each trial draws from its
    own SeedSequence, so any change to the draw order, the stage sums or
    the summary shows up here."""

    @pytest.mark.parametrize("path,want", [
        ("device",
         "f81b598ba91ee09a80f1f068643ef58a0b832c00cb284ca8940df0f82b1482d9"),
        ("host",
         "a3740e81fe9837e6908d14149292d0f06d203ccca39ec2a1ec9c5e9a9a28550d"),
        ("legacy",
         "6917c9edd3288287428a61df32cb9c3ad0964dc55adc7d0141636732ce23bfc3"),
    ])
    def test_latencies(self, path, want):
        res = reflex_benchmark(path, n_trials=2000, seed=0)
        got = hashlib.sha256(
            np.ascontiguousarray(res.latencies_us, dtype="<f8").tobytes())
        assert got.hexdigest() == want

    @pytest.mark.parametrize("path,want", [
        ("device",
         "d1d590f7e9df56315b6616ffbd69bf200fe4d29019ad92c9eedb7f96867f1da3"),
        ("host",
         "86ca243c643f1d52e0879e59545241a2ad66f49cabd0d7d2bcd40496cdf61842"),
        ("legacy",
         "62ac62c97bf23f520da1bae986c126b4142b157f5606edde3c90055784dd775a"),
    ])
    def test_stats(self, path, want):
        stats = reflex_benchmark(path, n_trials=500, seed=0).stats
        got = hashlib.sha256(json.dumps(stats, sort_keys=True).encode())
        assert got.hexdigest() == want
