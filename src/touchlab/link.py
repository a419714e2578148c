"""Device <-> host transport model and the six-stage latency pipeline.

The pipeline decomposes event-to-action time into acquisition, data
transfer, sub-sampling, inference, action transfer, and action stages.
Host and on-device paths carry calibrated per-stage means (microseconds):

    stage            host    on-device
    data transfer    1600    248
    sub-sampling     6       393
    action transfer  530     40
    action           1010    2
    fixed-stage sum  3146    683

Acquisition is modality/frequency dependent (a uniform sampling-phase draw
in [0, 1/rate) when the workload declares a sensor rate, zero otherwise)
and inference is model dependent (from the workload), so the fixed-stage
sums above are what a zero-inference benchmark reports as its total.

Per-stage jitter is a mean-one log-normal multiplier exp(sigma * z -
sigma^2 / 2) with z truncated at +/-5, so configured stage means are
reproduced exactly in expectation.  Everything runs on a virtual clock
with per-run seeds: identical seeds give identical timings, and matched
seeds across paths consume identical draw sequences, which makes the
host/on-device comparison a common-random-numbers experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import errors
from .nn import mlp_macs

HOST = "host"
ON_DEVICE = "device"

USB3_BANDWIDTH_BYTES_PER_S = 148e6

#: Event-to-action latency budget (microseconds).
DEFAULT_BUDGET_US = 2463.0

STAGE_NAMES = ("acquisition", "transfer", "subsample", "inference",
               "action_transfer", "action")


@dataclass(frozen=True)
class LinkProfile:
    """Byte-rate transport model with optional additive log-normal jitter
    (mu/sigma in log space, truncated at 5 sigma)."""

    name: str = "usb3"
    bandwidth_bytes_per_s: float = USB3_BANDWIDTH_BYTES_PER_S
    base_latency_us: float = 0.0
    jitter_mu: float | None = None
    jitter_sigma: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter sigma must be >= 0")

    def jitter_mean_us(self) -> float:
        if self.jitter_mu is None:
            return 0.0
        return math.exp(self.jitter_mu + self.jitter_sigma ** 2 / 2.0)


def simulate_transfer(link: LinkProfile, n_bytes: int, rng) -> float:
    """One transfer latency draw in microseconds."""
    if n_bytes < 0:
        raise ValueError("n_bytes must be >= 0")
    latency = n_bytes / link.bandwidth_bytes_per_s * 1e6 + link.base_latency_us
    if link.jitter_mu is not None:
        z = float(np.clip(rng.standard_normal(), -5.0, 5.0))
        latency += math.exp(link.jitter_mu + link.jitter_sigma * z)
    return latency


@dataclass(frozen=True)
class StageModel:
    """One pipeline stage: mean latency plus log-normal jitter width."""

    mean_us: float
    sigma: float = 0.0

    def sample(self, z: np.ndarray) -> np.ndarray:
        if self.sigma == 0.0:
            return np.full_like(np.asarray(z, dtype=np.float64), self.mean_us)
        m = np.exp(self.sigma * np.clip(z, -5.0, 5.0) - self.sigma ** 2 / 2.0)
        return self.mean_us * m


@dataclass(frozen=True)
class PathProfile:
    """Per-stage latency distributions for one processing path."""

    kind: str
    transfer: StageModel
    subsample: StageModel
    action_transfer: StageModel
    action: StageModel
    inference_sigma: float = 0.0
    link: LinkProfile = LinkProfile()

    def stage_means(self) -> dict:
        return {
            "transfer": self.transfer.mean_us,
            "subsample": self.subsample.mean_us,
            "action_transfer": self.action_transfer.mean_us,
            "action": self.action.mean_us,
        }

    def fixed_sum_us(self) -> float:
        return sum(self.stage_means().values())

    def without_jitter(self) -> "PathProfile":
        return replace(
            self,
            transfer=StageModel(self.transfer.mean_us, 0.0),
            subsample=StageModel(self.subsample.mean_us, 0.0),
            action_transfer=StageModel(self.action_transfer.mean_us, 0.0),
            action=StageModel(self.action.mean_us, 0.0),
            inference_sigma=0.0,
        )


HOST_PATH = PathProfile(
    kind=HOST,
    transfer=StageModel(1600.0, 0.10),
    subsample=StageModel(6.0, 0.10),
    action_transfer=StageModel(530.0, 0.10),
    action=StageModel(1010.0, 0.10),
    inference_sigma=0.10,
)

DEVICE_PATH = PathProfile(
    kind=ON_DEVICE,
    transfer=StageModel(248.0, 0.05),
    subsample=StageModel(393.0, 0.05),
    action_transfer=StageModel(40.0, 0.05),
    action=StageModel(2.0, 0.05),
    inference_sigma=0.05,
)

PATHS = {HOST: HOST_PATH, ON_DEVICE: DEVICE_PATH}


@dataclass(frozen=True)
class Workload:
    """What flows through the pipeline: payload size, model inference cost,
    and (optionally) the sampling rate of the acquiring sensor."""

    frame_bytes: int = 0
    inference_us: float = 0.0
    rate_hz: float | None = None


@dataclass(frozen=True)
class StageTimings:
    """One run's stage decomposition; total is the sum of stages."""

    acquisition_us: float
    transfer_us: float
    subsample_us: float
    inference_us: float
    action_transfer_us: float
    action_us: float

    @property
    def total_us(self) -> float:
        return (self.acquisition_us + self.transfer_us + self.subsample_us
                + self.inference_us + self.action_transfer_us + self.action_us)


def summarize(samples: np.ndarray) -> dict:
    samples = np.asarray(samples, dtype=np.float64)
    return {
        "mean": float(samples.mean()),
        "std": float(samples.std()),
        "p50": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
        "p99": float(np.percentile(samples, 99)),
    }


def jitter_stats(samples) -> dict:
    """Descriptive statistics of a latency sample set; std is the jitter
    figure."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise errors.TooFewSamples("need at least 2 samples")
    return summarize(samples)


@dataclass
class PipelineStats:
    """run_pipeline output: per-stage samples and their statistics."""

    path_kind: str
    n_runs: int
    stages: dict            # stage name -> samples array
    totals: np.ndarray
    stats: dict             # stage name (and "total") -> summary dict
    max_decomposition_error_us: float


def _draw_stage_samples(path: PathProfile, workload: Workload, n_runs: int,
                        rng) -> dict:
    """Stage samples in a fixed draw order so matched seeds align across
    paths."""
    u_acq = rng.random(n_runs)
    z = {name: rng.standard_normal(n_runs)
         for name in ("transfer", "subsample", "inference",
                      "action_transfer", "action")}

    if workload.rate_hz:
        acquisition = u_acq * (1e6 / workload.rate_hz)
    else:
        acquisition = np.zeros(n_runs)
    transfer = path.transfer.sample(z["transfer"]) \
        + workload.frame_bytes / path.link.bandwidth_bytes_per_s * 1e6
    inference = StageModel(workload.inference_us,
                           path.inference_sigma).sample(z["inference"]) \
        if workload.inference_us > 0 else np.zeros(n_runs)
    return {
        "acquisition": acquisition,
        "transfer": transfer,
        "subsample": path.subsample.sample(z["subsample"]),
        "inference": inference,
        "action_transfer": path.action_transfer.sample(z["action_transfer"]),
        "action": path.action.sample(z["action"]),
    }


def run_pipeline(path: PathProfile, workload: Workload = Workload(),
                 n_runs: int = 10_000, seed: int = 0) -> PipelineStats:
    """Simulate ``n_runs`` pipeline executions on the virtual clock.

    Each run advances the clock stage by stage; the end-to-end measurement
    is checked against the sum of the isolated stage samples (the
    decomposition consistency the isolation experiments rely on).
    """
    if n_runs < 1:
        raise errors.ConfigError("n_runs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((0x11A7, seed)))
    stages = _draw_stage_samples(path, workload, n_runs, rng)

    # Virtual clock: accumulate stage by stage, then compare against the sum.
    clock = np.zeros(n_runs)
    for name in STAGE_NAMES:
        clock = clock + stages[name]
    end_to_end = clock
    totals = sum(stages[name] for name in STAGE_NAMES)
    decomp_err = float(np.max(np.abs(end_to_end - totals))) if n_runs else 0.0

    stats = {name: summarize(stages[name]) for name in STAGE_NAMES}
    stats["total"] = summarize(totals)
    return PipelineStats(path_kind=path.kind, n_runs=n_runs, stages=stages,
                         totals=totals, stats=stats,
                         max_decomposition_error_us=decomp_err)


@dataclass(frozen=True)
class BudgetCheck:
    passed: bool
    total_us: float
    budget_us: float

    @property
    def margin_us(self) -> float:
        return self.budget_us - self.total_us


def latency_budget_check(pipeline, budget_us: float = DEFAULT_BUDGET_US) -> BudgetCheck:
    """Inclusive budget check: pass iff total <= budget."""
    if isinstance(pipeline, StageTimings):
        total = pipeline.total_us
    elif isinstance(pipeline, PipelineStats):
        total = float(pipeline.stats["total"]["mean"])
    else:
        total = float(pipeline)
    return BudgetCheck(passed=total <= budget_us, total_us=total,
                       budget_us=budget_us)


# --- calibrated on-device MLP inference costs ---------------------------------------

#: Per-layer inference cost of a width-64 dense layer on the fingertip
#: accelerator without the hardware engine (microseconds).  Calibrated so
#: the depth sweep first exceeds the latency budget at depth 10.
DEVICE_US_PER_LAYER_W64 = 190.0

#: Hardware-engine speedup; 60-layer networks fit the budget when enabled.
HW_ACCEL_FACTOR = 10.0

#: Derived throughput (width-64 layer = 4096 MACs).
DEVICE_MACS_PER_US = 64 * 64 / DEVICE_US_PER_LAYER_W64


def mlp_inference_us(depth: int, width: int = 64, hw_accel: bool = False) -> float:
    """Analytic on-device inference cost of a ``depth``-layer dense network."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return 0.0
    macs = mlp_macs([width] * (depth + 1))
    us = macs / DEVICE_MACS_PER_US
    return us / HW_ACCEL_FACTOR if hw_accel else us


def mlp_depth_sweep(path: PathProfile = DEVICE_PATH, layer_width: int = 64,
                    depths=tuple(range(0, 65)), hw_accel: bool = False,
                    budget_us: float = DEFAULT_BUDGET_US, n_runs: int = 400,
                    seed: int = 0) -> dict:
    """Latency of the pipeline as MLP depth grows; marks the first depth
    whose mean total exceeds the budget."""
    depths = list(depths)
    if not depths:
        raise ValueError("depths must be non-empty")
    rows = []
    first_exceeding = None
    for depth in depths:
        inf_us = mlp_inference_us(depth, layer_width, hw_accel)
        stats = run_pipeline(path, Workload(inference_us=inf_us),
                             n_runs=n_runs, seed=seed)
        total = stats.stats["total"]["mean"]
        within = total <= budget_us
        if not within and first_exceeding is None:
            first_exceeding = depth
        rows.append({
            "depth": depth,
            "inference_us": inf_us,
            "total_mean_us": total,
            "within_budget": within,
        })
    return {"rows": rows, "first_exceeding_depth": first_exceeding,
            "hw_accel": hw_accel, "budget_us": budget_us}


# --- topology ------------------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """Star topology: fingertips and manipulator hang off the host; the
    on-device path short-circuits fingertip -> manipulator."""

    n_fingertips: int = 4
    fingertip_to_host: LinkProfile = LinkProfile("usb3")
    host_to_manipulator: LinkProfile = LinkProfile("manipulator-bus")
    fingertip_to_manipulator: LinkProfile = LinkProfile("local-bus")

    def route(self, kind: str) -> tuple:
        if kind == HOST:
            return (("fingertip", "host", self.fingertip_to_host),
                    ("host", "manipulator", self.host_to_manipulator))
        if kind == ON_DEVICE:
            return (("fingertip", "manipulator", self.fingertip_to_manipulator),)
        raise ValueError(f"unknown path kind {kind!r}")
