"""Reflex arc: contact detection feeding an action command, benchmarked
end-to-end over the stage-latency model of :mod:`touchlab.link`.

The state machine is Idle -> ContactDetected -> ActionIssued -> Idle.  The
benchmark injects contact transients at random sampling phases, runs the
pressure detector on the sampled trace, and routes the detection through
a link path carrying a reflex workload:

    path     link path                         workload                   mean
    device   DEVICE_PATH                       20 us inference @ 1 kHz    ~1.2 ms
    host     HOST_PATH, transfer 250 us        200 us inference @ 1 kHz   ~2.5 ms
    legacy   HOST_PATH                         200 us inference @ 60 Hz   >6 ms

The host reflex path transfers small pressure packets, not camera frames,
so its transfer stage is 250 us where the vision pipeline's is 1600 us;
its other stages are the host pipeline's.  The legacy path stands for
vision-only hardware: it runs the same pressure detector, sampled at the
60 Hz camera frame rate, so the frame wait dominates its latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import errors
from .core import TimestampNs
from .link import (DEVICE_PATH, HOST_PATH, JITTERED_STAGES, StageModel,
                   Workload, sample_stages, summarize)

IDLE = "idle"
CONTACT_DETECTED = "contact_detected"
ACTION_ISSUED = "action_issued"

RETRACT = "retract"

DEBOUNCE_MS = 5.0


class ReflexStateMachine:
    """Enforces the Idle -> ContactDetected -> ActionIssued -> Idle cycle."""

    def __init__(self):
        self.state = IDLE
        self.t_event: TimestampNs | None = None
        self.t_action: TimestampNs | None = None

    def on_contact(self, t_event: TimestampNs) -> None:
        if self.state != IDLE:
            raise errors.InvalidTransition(f"contact in state {self.state}")
        self.state = CONTACT_DETECTED
        self.t_event = t_event
        self.t_action = None

    def on_action(self, t_action: TimestampNs) -> "ActionCommand":
        if self.state != CONTACT_DETECTED:
            raise errors.InvalidTransition(f"action in state {self.state}")
        if self.t_event is not None and t_action < self.t_event:
            raise errors.InvalidTransition("action cannot precede its event")
        self.state = ACTION_ISSUED
        self.t_action = t_action
        return ActionCommand(kind=RETRACT, issue_t_ns=t_action)

    def reset(self) -> None:
        if self.state != ACTION_ISSUED:
            raise errors.InvalidTransition(f"reset in state {self.state}")
        self.state = IDLE


@dataclass(frozen=True)
class ActionCommand:
    kind: str
    issue_t_ns: TimestampNs


@dataclass
class ContactDetector:
    """Debounced threshold detector over surface-pressure samples.

    Emits at most one event per contact episode: after a detection the
    detector re-arms only once the peak absolute pressure has stayed below
    threshold for ``DEBOUNCE_MS``.
    """

    threshold: float = 0.05

    def __post_init__(self):
        if self.threshold <= 0:
            raise errors.ConfigError("threshold must be positive")
        self._armed = True
        self._quiet_since_s: float | None = None

    def update(self, t_s: float, payload) -> float | None:
        """Feed one pressure sample; returns the event time (s) when a new
        contact episode crosses the threshold."""
        above = float(np.max(np.abs(payload))) >= self.threshold
        if above:
            self._quiet_since_s = None
            if self._armed:
                self._armed = False
                return t_s
            return None
        if not self._armed:
            if self._quiet_since_s is None:
                self._quiet_since_s = t_s
            elif (t_s - self._quiet_since_s) * 1e3 >= DEBOUNCE_MS:
                self._armed = True
                self._quiet_since_s = None
        return None


# --- benchmark paths ------------------------------------------------------------

#: Reflex path name -> (link path, reflex workload).
REFLEX_PATHS = {
    "device": (DEVICE_PATH, Workload(inference_us=20.0, rate_hz=1000.0)),
    "host": (replace(HOST_PATH, transfer=StageModel(250.0, 0.10)),
             Workload(inference_us=200.0, rate_hz=1000.0)),
    "legacy": (HOST_PATH, Workload(inference_us=200.0, rate_hz=60.0)),
}


@dataclass
class ReflexResult:
    path: str
    n_trials: int
    latencies_us: np.ndarray
    stats: dict = field(init=False)

    def __post_init__(self):
        self.stats = summarize(self.latencies_us)


NOISE_SIGMA = 0.005
PULSE_AMPLITUDE = 50 * NOISE_SIGMA

#: Fewest and most trials of one ``reflex_benchmark`` call; a count outside
#: is rejected before anything is allocated.
MIN_TRIALS, MAX_TRIALS = 100, 10**6


def _trial_acquisition_us(rate_hz: float, rng) -> float:
    """Sampling-phase delay measured by running the detector on a
    synthesized contact transient."""
    period_s = 1.0 / rate_hz
    t_event = rng.uniform(0.0, period_s)
    detector = ContactDetector(threshold=5 * NOISE_SIGMA)
    # Impact transients rise far faster than one sample period: step onset
    # with a slow ring decay.
    for k in range(1, 64):
        t_k = k * period_s
        value = rng.normal(0.0, NOISE_SIGMA, size=4)
        if t_k >= t_event:
            value = value + PULSE_AMPLITUDE * np.exp(-(t_k - t_event) / 0.03)
        hit = detector.update(t_k, value)
        if hit is not None:
            return (hit - t_event) * 1e6
    raise RuntimeError("synthetic transient was never detected")


def reflex_benchmark(path: str, n_trials: int = 2000,
                     seed: int = 0) -> ReflexResult:
    """Event-to-action latency distribution over injected contacts.

    Trial i draws its sampling phase, detector noise and stage jitter from
    its own SeedSequence((0x4EF1, seed, i)), so matched trials across paths
    share their stage draws and path comparisons are common-random-number
    experiments.  A latency is acquisition + (sum of the jittered stages).
    """
    if path not in REFLEX_PATHS:
        raise errors.ConfigError(
            f"unknown reflex path {path!r}; choose from {sorted(REFLEX_PATHS)}")
    if not MIN_TRIALS <= n_trials <= MAX_TRIALS:
        raise errors.ConfigError(
            f"n_trials must be in [{MIN_TRIALS}, {MAX_TRIALS}], got {n_trials}")
    profile, workload = REFLEX_PATHS[path]
    acquisition = np.empty(n_trials)
    z = np.empty((len(JITTERED_STAGES), n_trials))
    for i in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence((0x4EF1, seed, i)))
        acquisition[i] = _trial_acquisition_us(workload.rate_hz, rng)
        z[:, i] = rng.standard_normal(len(JITTERED_STAGES))
    stages = sample_stages(profile, workload, z)
    latencies = acquisition + sum(stages.values())
    arc = ReflexStateMachine()
    for total in latencies:
        arc.on_contact(0)
        arc.on_action(int(total * 1000))
        arc.reset()
    return ReflexResult(path=path, n_trials=n_trials, latencies_us=latencies)
