"""The six-stage event-to-action latency model.

This module is the one place stage latencies are declared and sampled; the
reflex-arc benchmark is ``run_pipeline`` over a reflex path.  The pipeline
decomposes event-to-action time into acquisition, data transfer,
sub-sampling, inference, action transfer and action.  A ``PathProfile``
holds one processing path's calibrated stage means (microseconds) and
jitter widths; a ``Workload`` holds the model's inference cost and the
acquiring sensor's rate:

    stage            host     on-device   declared by
    acquisition      U[0, 1/rate_hz)      workload (0 without a rate)
    data transfer    1600     248         path
    sub-sampling     6        393         path
    inference        inference_us         workload mean, path jitter
    action transfer  530      40          path
    action           1010     2           path
    fixed-stage sum  3146     683
    jitter sigma     0.10     0.05        path, every stage but acquisition

The fixed-stage sums are what a zero-inference workload without a sensor
rate reports as its total.  Each transfer mean is the calibrated cost of
the whole hop, so no payload size enters the model.

Per-stage jitter is a mean-one log-normal multiplier exp(sigma * z -
sigma^2 / 2) with z truncated at +/-5, so configured stage means are
reproduced exactly in expectation.  Runs are seeded: identical seeds give
identical timings, and matched seeds across paths consume identical draw
sequences, which makes the host/on-device comparison a
common-random-numbers experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import errors

#: Event-to-action latency budget (microseconds).
DEFAULT_BUDGET_US = 2463.0

STAGE_NAMES = ("acquisition", "transfer", "subsample", "inference",
               "action_transfer", "action")

#: Most runs one ``run_pipeline`` call simulates (about 1 GB of stage
#: arrays); a larger count is rejected before anything is allocated.
MAX_RUNS = 10**7


@dataclass(frozen=True)
class StageModel:
    """One pipeline stage: mean latency plus log-normal jitter width."""

    mean_us: float
    sigma: float = 0.0

    def sample(self, z: np.ndarray) -> np.ndarray:
        m = np.exp(self.sigma * np.clip(z, -5.0, 5.0) - self.sigma ** 2 / 2.0)
        return self.mean_us * m


@dataclass(frozen=True)
class PathProfile:
    """Per-stage latency distributions for one processing path; inference
    takes its mean from the workload and its jitter from the path."""

    transfer: StageModel
    subsample: StageModel
    action_transfer: StageModel
    action: StageModel
    inference_sigma: float = 0.0

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
    transfer=StageModel(1600.0, 0.10),
    subsample=StageModel(6.0, 0.10),
    action_transfer=StageModel(530.0, 0.10),
    action=StageModel(1010.0, 0.10),
    inference_sigma=0.10,
)

DEVICE_PATH = PathProfile(
    transfer=StageModel(248.0, 0.05),
    subsample=StageModel(393.0, 0.05),
    action_transfer=StageModel(40.0, 0.05),
    action=StageModel(2.0, 0.05),
    inference_sigma=0.05,
)


@dataclass(frozen=True)
class Workload:
    """What flows through the pipeline: model inference cost and
    (optionally) the sampling rate of the acquiring sensor."""

    inference_us: float = 0.0
    rate_hz: float | None = None


def summarize(samples) -> dict | list[dict]:
    """Mean, std and type-7 p50, p95 and p99 of each row of ``samples``.

    One pass over the stacked rows: one ``mean``, one ``std`` and one
    ``np.percentile`` call for all rows, each row giving the same bits as
    it would alone.  A 2-D input gives one summary per row; a 1-D input is
    the one-row case and gives its summary.
    """
    rows = np.array(samples, dtype=np.float64, ndmin=1)
    if rows.shape[-1] == 0:
        raise errors.EmptyDataset("no samples to summarize")
    mean, std = rows.mean(axis=-1), rows.std(axis=-1)
    # ``rows`` is this function's own copy, so once the moments are taken
    # the percentiles may partition it in place.
    pct = np.percentile(rows, (50, 95, 99), axis=-1, overwrite_input=True)
    table = np.atleast_2d(np.stack((mean, std, *pct), axis=-1))
    summaries = [dict(zip(("mean", "std", "p50", "p95", "p99"), map(float, row)))
                 for row in table]
    return summaries[0] if rows.ndim == 1 else summaries


@dataclass
class PipelineStats:
    """run_pipeline output: per-stage samples and their statistics."""

    n_runs: int
    stages: dict            # stage name -> samples array
    totals: np.ndarray
    stats: dict             # stage name (and "total") -> summary dict


def run_pipeline(path: PathProfile, workload: Workload = Workload(),
                 n_runs: int = 10_000, seed: int = 0) -> PipelineStats:
    """Simulate ``n_runs`` pipeline executions.  Draws come in a fixed
    order (acquisition phases, then each jittered stage) so matched seeds
    align across paths; a run's total is the sum of its stages."""
    if not 1 <= n_runs <= MAX_RUNS:
        raise errors.ConfigError(f"n_runs must be in [1, {MAX_RUNS}], got {n_runs}")
    rng = np.random.default_rng(np.random.SeedSequence((0x11A7, seed)))
    u_acq = rng.random(n_runs)
    transfer, subsample, inference, action_transfer, action = \
        rng.standard_normal((len(STAGE_NAMES) - 1, n_runs))
    acquisition = u_acq * (1e6 / workload.rate_hz) if workload.rate_hz \
        else np.zeros(n_runs)
    stages = {
        "acquisition": acquisition,
        "transfer": path.transfer.sample(transfer),
        "subsample": path.subsample.sample(subsample),
        "inference": StageModel(workload.inference_us,
                                path.inference_sigma).sample(inference),
        "action_transfer": path.action_transfer.sample(action_transfer),
        "action": path.action.sample(action),
    }
    totals = sum(stages[name] for name in STAGE_NAMES)

    stats = dict(zip((*STAGE_NAMES, "total"),
                     summarize([stages[name] for name in STAGE_NAMES] + [totals])))
    return PipelineStats(n_runs=n_runs, stages=stages, totals=totals,
                         stats=stats)


@dataclass(frozen=True)
class BudgetCheck:
    passed: bool
    total_us: float
    budget_us: float

    @property
    def margin_us(self) -> float:
        return self.budget_us - self.total_us


def latency_budget_check(pipeline, budget_us: float = DEFAULT_BUDGET_US) -> BudgetCheck:
    """Inclusive budget check on a pipeline's mean total (or a plain
    number): pass iff total <= budget."""
    if not math.isfinite(budget_us):
        raise errors.ConfigError(f"budget must be finite, got {budget_us}")
    if isinstance(pipeline, PipelineStats):
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

#: Layer width of the on-device networks, pipeline runs per depth of a
#: depth sweep, and the derived throughput (a width-64 layer is 4096 MACs).
MLP_WIDTH, DEPTH_SWEEP_RUNS = 64, 400
DEVICE_MACS_PER_US = MLP_WIDTH * MLP_WIDTH / DEVICE_US_PER_LAYER_W64


def mlp_macs(layer_sizes) -> int:
    """Multiply-accumulate count for a dense network."""
    sizes = list(layer_sizes)
    return int(sum(a * b for a, b in zip(sizes[:-1], sizes[1:])))


def mlp_inference_us(depth: int, hw_accel: bool = False) -> float:
    """Analytic on-device inference cost of a ``depth``-layer dense network."""
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) \
            or depth < 0:
        raise errors.ConfigError(f"depth must be an int >= 0, got {depth!r}")
    if depth == 0:
        return 0.0
    macs = mlp_macs([MLP_WIDTH] * (depth + 1))
    us = macs / DEVICE_MACS_PER_US
    return us / HW_ACCEL_FACTOR if hw_accel else us


def mlp_depth_sweep(depths=tuple(range(0, 65)), hw_accel: bool = False,
                    seed: int = 0) -> dict:
    """Latency of the on-device pipeline as MLP depth grows; marks the first
    depth whose mean total exceeds the budget.

    Every depth shares one set of ``DEPTH_SWEEP_RUNS`` draws on ``seed``:
    one unit-inference pipeline run, whose inference column is scaled by
    each depth's cost.  A depth's row is therefore the one its own
    ``run_pipeline`` of ``mlp_inference_us(depth)`` on ``seed`` would give,
    bit for bit, since a stage's samples are its mean times jitter
    multipliers that do not depend on the mean.  Every depth is checked
    before the draw.
    """
    depths = list(depths)
    if not depths:
        raise errors.ConfigError("depths must be non-empty")
    costs = [mlp_inference_us(depth, hw_accel) for depth in depths]
    unit = run_pipeline(DEVICE_PATH, Workload(inference_us=1.0),
                        DEPTH_SWEEP_RUNS, seed).stages
    # One (depth, run) row per depth, summed in STAGE_NAMES order as in
    # run_pipeline.
    stages = dict(unit, inference=np.multiply.outer(costs, unit["inference"]))
    means = sum(stages[name] for name in STAGE_NAMES).mean(axis=1)
    rows = []
    first_exceeding = None
    for depth, inf_us, mean in zip(depths, costs, means):
        check = latency_budget_check(float(mean))
        if not check.passed and first_exceeding is None:
            first_exceeding = depth
        rows.append({
            "depth": depth,
            "inference_us": inf_us,
            "total_mean_us": check.total_us,
            "within_budget": check.passed,
        })
    return {"rows": rows, "first_exceeding_depth": first_exceeding,
            "hw_accel": hw_accel, "budget_us": DEFAULT_BUDGET_US}
