import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from touchlab import errors
from touchlab.link import DEVICE_PATH, HOST_PATH, StageModel, run_pipeline
from touchlab.reflex import REFLEX_PATHS, reflex_benchmark

PATH_IDS = ("device", "host", "legacy")


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

    @pytest.mark.parametrize("path", sorted(REFLEX_PATHS))
    @pytest.mark.parametrize("n,seed", [(100, 0), (1000, 7)])
    def test_benchmark_is_the_pipeline(self, path, n, seed):
        res = reflex_benchmark(path, n_trials=n, seed=seed)
        pipeline = run_pipeline(*REFLEX_PATHS[path], n_runs=n, seed=seed)
        assert res.latencies_us.tobytes() == pipeline.totals.tobytes()
        assert json.dumps(res.stats) == json.dumps(pipeline.stats["total"])


class TestPinnedReflexDigests:
    """SHA-256 of criterion 02's inputs, 2,000 trial latencies per path at
    seed 0, and of the statistics of 500 trials, so any change to the draw
    order, the stage sums or the summary shows up here."""

    @pytest.mark.parametrize("path,want", [
        ("device",
         "d1b1337f53b69d04783acf662863c265ab31a4b2d4da9ce47fee9fb81bb9c2dc"),
        ("host",
         "0084a2022fb29b41a432a48f7628e20ff6457089cff794fc368b33fa168b3d6c"),
        ("legacy",
         "96779148f1baf157d491cbd03e5182df453e5fa8a3960b4424c644778402bf20"),
    ], ids=PATH_IDS)
    def test_latencies(self, path, want):
        res = reflex_benchmark(path, n_trials=2000, seed=0)
        got = hashlib.sha256(
            np.ascontiguousarray(res.latencies_us, dtype="<f8").tobytes())
        assert got.hexdigest() == want

    @pytest.mark.parametrize("path,want", [
        ("device",
         "e966386fcef5cc4c47f4cbafab797ff2af573432d11480919e5e194b143189b5"),
        ("host",
         "9daa7805bebcf27505d093b18edacf801ddb0a4d8805075cac016e5d99756956"),
        ("legacy",
         "c9ec37914c843f7e8e4948080d421bd95303b173847b41fd1474859877ba7073"),
    ], ids=PATH_IDS)
    def test_stats(self, path, want):
        stats = reflex_benchmark(path, n_trials=500, seed=0).stats
        got = hashlib.sha256(json.dumps(stats, sort_keys=True).encode())
        assert got.hexdigest() == want
