import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchlab import errors, link
from touchlab.link import (
    DEFAULT_BUDGET_US,
    DEVICE_PATH,
    HOST_PATH,
    STAGE_NAMES,
    Workload,
    latency_budget_check,
    mlp_depth_sweep,
    mlp_inference_us,
    mlp_macs,
    run_pipeline,
    summarize,
)


class TestRunPipeline:
    def test_host_defaults_member_means(self):
        stats = run_pipeline(HOST_PATH, Workload(), n_runs=10_000, seed=0)
        assert stats.stats["total"]["mean"] == pytest.approx(3146.0, rel=0.10)
        for name, want in (("transfer", 1600.0), ("subsample", 6.0),
                           ("action_transfer", 530.0), ("action", 1010.0)):
            assert stats.stats[name]["mean"] == pytest.approx(want, rel=0.10)

    def test_device_defaults(self):
        stats = run_pipeline(DEVICE_PATH, Workload(), n_runs=10_000, seed=0)
        assert stats.stats["total"]["mean"] == pytest.approx(683.0, rel=0.10)

    def test_no_jitter_single_run_exact(self):
        stats = run_pipeline(HOST_PATH.without_jitter(), Workload(), n_runs=1)
        assert stats.stats["total"]["mean"] == pytest.approx(3146.0, abs=1e-9)

    def test_acquisition_phase_model(self):
        stats = run_pipeline(DEVICE_PATH, Workload(rate_hz=240.0), n_runs=20_000,
                             seed=1)
        acq = stats.stages["acquisition"]
        assert acq.max() <= 1e6 / 240.0
        assert acq.mean() == pytest.approx(0.5e6 / 240.0, rel=0.03)

    def test_device_dominates_host_per_matched_trial(self):
        n = 5000
        host = run_pipeline(HOST_PATH, Workload(), n_runs=n, seed=11)
        dev = run_pipeline(DEVICE_PATH, Workload(), n_runs=n, seed=11)
        assert np.all(dev.totals < host.totals)
        for p in ("p50", "p95", "p99"):
            assert dev.stats["total"][p] < host.stats["total"][p]

    def test_determinism(self):
        a = run_pipeline(HOST_PATH, Workload(), n_runs=100, seed=5)
        b = run_pipeline(HOST_PATH, Workload(), n_runs=100, seed=5)
        assert np.array_equal(a.totals, b.totals)


class TestJitterStats:
    """``summarize`` is the statistics block of every latency report; its
    std is the jitter figure."""

    def test_constant_samples(self):
        s = summarize(np.full(10, 3.0))
        assert s["std"] == 0.0

    def test_direct_arithmetic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s["mean"] == pytest.approx(3.0)
        assert s["std"] == pytest.approx(np.sqrt(2.0))

    def test_empty_samples(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for empty in ([], np.empty((3, 0))):
                with pytest.raises(errors.EmptyDataset):
                    summarize(empty)

    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.integers(1, 8), length=st.integers(1, 3000),
           kinds=st.lists(st.sampled_from(("normal", "ties", "constant")),
                          min_size=8, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_rows_match_rows_alone(self, n_rows, length, kinds, seed):
        rng = np.random.default_rng(seed)
        rows = np.empty((n_rows, length))
        for row, kind in zip(rows, kinds):
            if kind == "normal":
                row[:] = rng.normal(rng.normal(0.0, 1e3), 1e2, length)
            elif kind == "ties":
                row[:] = rng.integers(-3, 4, length) * 0.5
            else:
                row[:] = -rng.exponential(10.0)
        before = rows.copy()
        stacked = summarize(rows)
        assert np.array_equal(rows, before)
        assert [_bits(s) for s in stacked] == [_bits(summarize(r)) for r in rows]
        assert [_bits(s) for s in stacked] == [_bits(_summary_alone(r)) for r in rows]

    def test_device_jitter_below_host(self):
        host = run_pipeline(HOST_PATH, Workload(), n_runs=10_000, seed=2)
        dev = run_pipeline(DEVICE_PATH, Workload(), n_runs=10_000, seed=2)
        assert dev.stats["total"]["std"] < host.stats["total"]["std"]


def _summary_alone(row) -> dict:
    """Reference summary of one 1-D series, one percentile call per
    quantile."""
    return {"mean": float(row.mean()), "std": float(row.std()),
            "p50": float(np.percentile(row, 50)),
            "p95": float(np.percentile(row, 95)),
            "p99": float(np.percentile(row, 99))}


def _bits(summary: dict) -> dict:
    return {k: float(v).hex() for k, v in summary.items()}


class TestBudgetCheck:
    def test_device_with_inference_passes(self):
        # Arithmetic on the fixed stage means: 683 + 500 = 1183 <= 2463.
        stats = run_pipeline(DEVICE_PATH.without_jitter(),
                             Workload(inference_us=500.0), n_runs=1)
        check = latency_budget_check(stats)
        assert check.passed
        assert check.total_us == pytest.approx(1183.0)

    def test_host_fails(self):
        stats = run_pipeline(HOST_PATH.without_jitter(), Workload(), n_runs=1)
        check = latency_budget_check(stats)
        assert not check.passed
        assert check.total_us == pytest.approx(3146.0)

    def test_boundary_inclusive(self):
        assert latency_budget_check(DEFAULT_BUDGET_US).passed
        assert not latency_budget_check(DEFAULT_BUDGET_US + 1e-9).passed

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(errors.ConfigError):
            latency_budget_check(1000.0, budget)


class TestDepthSweep:
    def test_crossover_without_acceleration(self):
        sweep = mlp_depth_sweep(depths=range(0, 16), hw_accel=False)
        assert sweep["first_exceeding_depth"] == 10

    def test_depth_60_with_acceleration(self):
        sweep = mlp_depth_sweep(depths=(0, 10, 30, 60), hw_accel=True)
        rows = {r["depth"]: r for r in sweep["rows"]}
        assert rows[60]["within_budget"]
        assert sweep["first_exceeding_depth"] is None

    def test_bad_depths_rejected(self):
        with pytest.raises(errors.ConfigError):
            mlp_depth_sweep(depths=())
        for depth in (-1, 1.5, "3", True, None):
            with pytest.raises(errors.ConfigError):
                mlp_inference_us(depth)

    @pytest.mark.parametrize("depths", [(1.5,), ("3",), (0, 5, -1),
                                        (True,), (2, np.float64(4.0))])
    def test_depths_checked_before_any_draw(self, monkeypatch, depths):
        def fail(*args, **kwargs):
            raise AssertionError("a pipeline was run")
        monkeypatch.setattr(link, "run_pipeline", fail)
        with pytest.raises(errors.ConfigError):
            mlp_depth_sweep(depths=depths)

    @settings(max_examples=25, deadline=None)
    @given(depths=st.lists(st.integers(0, 80), min_size=1, max_size=6),
           hw_accel=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_one_pipeline_per_depth(self, depths, hw_accel, seed):
        want = []
        for depth in depths:
            inf_us = mlp_inference_us(depth, hw_accel)
            stats = run_pipeline(DEVICE_PATH, Workload(inference_us=inf_us),
                                 link.DEPTH_SWEEP_RUNS, seed)
            total = stats.stats["total"]["mean"]
            want.append({"depth": depth, "inference_us": inf_us,
                         "total_mean_us": total,
                         "within_budget": total <= DEFAULT_BUDGET_US})
        got = mlp_depth_sweep(depths=depths, hw_accel=hw_accel, seed=seed)
        assert json.dumps(got["rows"]) == json.dumps(want)

    def test_depth_zero_costs_nothing(self):
        assert mlp_inference_us(0) == 0.0
        sweep = mlp_depth_sweep(depths=(0,), hw_accel=False)
        assert sweep["rows"][0]["within_budget"]

    def test_monotone_in_depth(self):
        sweep = mlp_depth_sweep(depths=range(0, 30, 3), hw_accel=False)
        totals = [r["total_mean_us"] for r in sweep["rows"]]
        assert all(b > a for a, b in zip(totals, totals[1:]))


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestPinnedPipelineDigests:
    """SHA-256 of every stage array, the totals and the statistics of
    10,000 pipeline runs (seed 0), and of the rows of criterion 03's two
    depth sweeps.  Stage draws and sums are elementwise IEEE arithmetic, so
    a change to the stage model that alters any sample shows up here."""

    CASES = {
        "host": (HOST_PATH, Workload()),
        "device": (DEVICE_PATH, Workload()),
        "host_240hz_300us": (HOST_PATH, Workload(rate_hz=240.0, inference_us=300.0)),
        "host_no_jitter": (HOST_PATH.without_jitter(), Workload()),
    }

    DIGESTS = {
        "host": {
            "acquisition":
                "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
            "transfer":
                "6d1bacb167d6ff5da23255ee471c9a4ae051c81e574961a28dd885c01328fbe8",
            "subsample":
                "ff8a31278b02d7f8b451db5de67f62a775e4225db237390d14022099a51b5299",
            "inference":
                "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
            "action_transfer":
                "e4dce503aaeae825134950a581635294d4cb8ddd72776881abf6c1c9befd2b42",
            "action":
                "99178fbe26ca1ec508a62c904f5f19ac62e3efdc520ec9a0a7f7680aac27cf8a",
            "totals":
                "8dca39646aee158ce7d14ed2c9a7d7c7b3f79caca8582fdc5ee8a9d7c4518d2e",
        },
        "device": {
            "acquisition":
                "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
            "transfer":
                "bdcb244cde89e6f230dde3eba23dc643182532ead991480f27ada14de43ca383",
            "subsample":
                "e2a7b3f24dc5b9d3e5b41a0463d6fdcd70405e7b674b306a8114b8338f6f5304",
            "inference":
                "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
            "action_transfer":
                "5b4a7cbf4207a20517a2edd392c338c15f0e36c742be07787e6e96488495117f",
            "action":
                "59da21327cb88dbc5f4bfde8a05ab710cac569c86592c4c166554bde18eef68c",
            "totals":
                "3205d34ed47b7ac52af9eb8ad8c7faf0dc4da80508fdf3f29a0e7fccd2d99e58",
        },
        "host_240hz_300us": {
            "acquisition":
                "ceb7766eab82a66d33fcfbf6eebc7917577edc0903d3c5fcd6b63518e0aec424",
            "transfer":
                "6d1bacb167d6ff5da23255ee471c9a4ae051c81e574961a28dd885c01328fbe8",
            "subsample":
                "ff8a31278b02d7f8b451db5de67f62a775e4225db237390d14022099a51b5299",
            "inference":
                "3f4d4450c20c778d454fd892a42dc13fbb1c142ee1b871e57aee2a9e5f72f52a",
            "action_transfer":
                "e4dce503aaeae825134950a581635294d4cb8ddd72776881abf6c1c9befd2b42",
            "action":
                "99178fbe26ca1ec508a62c904f5f19ac62e3efdc520ec9a0a7f7680aac27cf8a",
            "totals":
                "dba44092e148694c2e8598715709962346c6622441db4db9f226b1f3f61d01b7",
        },
        "host_no_jitter": {
            "acquisition":
                "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
            "transfer":
                "a1ab97520c9f47b6558311d15041374f5c9baa1b11bd2238020f8cc2ab81fc08",
            "subsample":
                "bfdb72717c120f72b034625a41d4d182b8374471a17bcc10aeeec9140b0bdc3f",
            "inference":
                "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
            "action_transfer":
                "1464d5aa7db410e79f6de97dea23ca0da8a374a5d5487f4488b292d59c447f94",
            "action":
                "fafe1f3e529f6ee5e4f8a27cb0fceac20e31a58b5be3008e47a18b50d4492aac",
            "totals":
                "7359df6bf26bdb484e56e17ac9c4fe58dfab1f4fc91753e3d686161f1c3f057e",
        },
    }

    #: SHA-256 of ``json.dumps(stats, sort_keys=True)``: the mean, std,
    #: p50, p95 and p99 of every stage and of the totals.
    STATS_DIGESTS = {
        "host": "89b4cca3c9838cf2e2dedfcda137ff27727d4bb09d3cd228848e7d0fcf987bc7",
        "device": "b4c1261f72f0ca9e0aecfcc40d77e993c147b3ae89f0153d64d54b4846002c04",
        "host_240hz_300us":
            "fd460468ebdc20a9a750d5806d2b65eb1eda2a64b3248ec28339bd56f55659e7",
        "host_no_jitter":
            "8cef1ffbc2aff028b866c7a9d3e7fca571ea0828883cbc590a5988300de06db8",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stats(self, case):
        path, workload = self.CASES[case]
        stats = run_pipeline(path, workload, n_runs=10_000, seed=0).stats
        got = hashlib.sha256(json.dumps(stats, sort_keys=True).encode())
        assert got.hexdigest() == self.STATS_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stages_and_totals(self, case):
        path, workload = self.CASES[case]
        stats = run_pipeline(path, workload, n_runs=10_000, seed=0)
        got = {name: _digest(stats.stages[name]) for name in STAGE_NAMES}
        got["totals"] = _digest(stats.totals)
        assert got == self.DIGESTS[case]

    @pytest.mark.parametrize("hw_accel,depths,want", [
        (False, range(0, 13),
         "2f8493ad16a804d251335197b95c131ffd65da8bdff1c0139ab5f61c6b99211e"),
        (True, range(0, 61, 5),
         "d5b8ae993972c8419000cfdf179f1991dba9b1dffd9e6acd2a4fc9bf61d8d0dd"),
    ])
    def test_depth_sweep_rows(self, hw_accel, depths, want):
        sweep = mlp_depth_sweep(depths=depths, hw_accel=hw_accel)
        rows = json.dumps(sweep["rows"], sort_keys=True).encode()
        assert hashlib.sha256(rows).hexdigest() == want


class TestMlpMacs:
    def test_mlp_macs(self):
        assert mlp_macs((64, 64, 64)) == 2 * 64 * 64
