"""Reflex arc: the event-to-action benchmark of a contact reflex, run as
:func:`touchlab.link.run_pipeline` over a reflex path.

A reflex path is a link path plus a reflex workload:

    path     link path                         workload                   mean
    device   DEVICE_PATH                       20 us inference @ 1 kHz    ~1.2 ms
    host     HOST_PATH, transfer 250 us        200 us inference @ 1 kHz   ~2.5 ms
    legacy   HOST_PATH                         200 us inference @ 60 Hz   >6 ms

The host reflex path transfers small pressure packets, not camera frames,
so its transfer stage is 250 us where the vision pipeline's is 1600 us;
its other stages are the host pipeline's.  The legacy path stands for
vision-only hardware: its pressure samples arrive at the 60 Hz camera
frame rate, so the frame wait dominates its latency.  Acquisition is the
pipeline's one model, a uniform phase within the sampling period: a
contact transient crosses the detection threshold on the first sample
after it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .link import (DEVICE_PATH, HOST_PATH, StageModel, Workload,
                   run_pipeline)

#: Reflex path name -> (link path, reflex workload).
REFLEX_PATHS = {
    "device": (DEVICE_PATH, Workload(inference_us=20.0, rate_hz=1000.0)),
    "host": (replace(HOST_PATH, transfer=StageModel(250.0, 0.10)),
             Workload(inference_us=200.0, rate_hz=1000.0)),
    "legacy": (HOST_PATH, Workload(inference_us=200.0, rate_hz=60.0)),
}

#: Fewest and most trials of one ``reflex_benchmark`` call; a count outside
#: is rejected before anything is allocated.
MIN_TRIALS, MAX_TRIALS = 100, 10**6


@dataclass
class ReflexResult:
    path: str
    n_trials: int
    latencies_us: np.ndarray
    stats: dict             # summary of ``latencies_us``


def reflex_benchmark(path: str, n_trials: int = 2000,
                     seed: int = 0) -> ReflexResult:
    """Event-to-action latency distribution of ``n_trials`` contacts on a
    reflex path: the totals of ``run_pipeline`` over the path's link path
    and workload.  Matched seeds share every draw across paths, so path
    comparisons are common-random-number experiments."""
    if path not in REFLEX_PATHS:
        raise errors.ConfigError(
            f"unknown reflex path {path!r}; choose from {sorted(REFLEX_PATHS)}")
    if not MIN_TRIALS <= n_trials <= MAX_TRIALS:
        raise errors.ConfigError(
            f"n_trials must be in [{MIN_TRIALS}, {MAX_TRIALS}], got {n_trials}")
    pipeline = run_pipeline(*REFLEX_PATHS[path], n_runs=n_trials, seed=seed)
    return ReflexResult(path=path, n_trials=n_trials,
                        latencies_us=pipeline.totals,
                        stats=pipeline.stats["total"])
