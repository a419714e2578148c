"""Reflex arc: contact detection feeding an action command, benchmarked
end-to-end over simulated processing paths.

The state machine is Idle -> ContactDetected -> ActionIssued -> Idle.  The
benchmark injects contact transients at random sampling phases, runs the
pressure (or visuotactile) detector on the sampled trace, and routes the
detection through a calibrated path profile:

    path            acquisition          stage means (us)                mean
    device          pressure @ 1 kHz     248 + 393 + 20 + 40 + 2         ~1.2 ms
    host            pressure @ 1 kHz     250 + 6 + 200 + 530 + 1010      ~2.5 ms
    legacy          vision @ 60 fps      1600 + 6 + 200 + 530 + 1010     >6 ms

The host reflex path transfers small pressure packets, not camera frames,
so its transfer/inference stages are smaller than the vision pipeline's;
the action stages match the host pipeline.  The legacy profile is
vision-only hardware: a 60 fps frame wait dominates its latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors
from .core import ModalityKind, TimestampNs
from .link import StageModel, summarize

IDLE = "idle"
CONTACT_DETECTED = "contact_detected"
ACTION_ISSUED = "action_issued"

RETRACT = "retract"


class ReflexStateMachine:
    """Enforces the Idle -> ContactDetected -> ActionIssued -> Idle cycle."""

    def __init__(self):
        self.state = IDLE
        self.t_event: TimestampNs | None = None
        self.t_action: TimestampNs | None = None

    def on_contact(self, t_event: TimestampNs) -> None:
        if self.state != IDLE:
            raise ValueError(f"contact in state {self.state}")
        self.state = CONTACT_DETECTED
        self.t_event = t_event
        self.t_action = None

    def on_action(self, t_action: TimestampNs) -> "ActionCommand":
        if self.state != CONTACT_DETECTED:
            raise ValueError(f"action in state {self.state}")
        if self.t_event is not None and t_action < self.t_event:
            raise ValueError("action cannot precede its event")
        self.state = ACTION_ISSUED
        self.t_action = t_action
        return ActionCommand(kind=RETRACT, issue_t_ns=t_action)

    def reset(self) -> None:
        if self.state != ACTION_ISSUED:
            raise ValueError(f"reset in state {self.state}")
        self.state = IDLE


@dataclass(frozen=True)
class ActionCommand:
    kind: str
    issue_t_ns: TimestampNs


@dataclass
class ContactDetector:
    """Debounced threshold detector over one modality.

    Emits at most one event per contact episode: after a detection the
    detector re-arms only once the score has stayed below threshold for
    ``debounce_ms``.
    """

    source: ModalityKind = ModalityKind.SURFACE_PRESSURE
    threshold: float = 0.05
    debounce_ms: float = 5.0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.source not in (ModalityKind.SURFACE_PRESSURE,
                               ModalityKind.VISUOTACTILE):
            raise ValueError(f"unsupported detector source {self.source}")
        self._armed = True
        self._quiet_since_s: float | None = None
        self._reference: np.ndarray | None = None

    def reset(self):
        self._armed = True
        self._quiet_since_s = None
        self._reference = None

    def score(self, kind: ModalityKind, payload: np.ndarray) -> float:
        if kind != self.source:
            raise errors.ModalityMismatch(
                f"detector source {self.source.name} got a {kind.name} sample")
        if kind is ModalityKind.SURFACE_PRESSURE:
            return float(np.max(np.abs(payload)))
        frame = np.asarray(payload, dtype=np.float64)
        if self._reference is None:
            self._reference = frame
            return 0.0
        return float(np.mean(np.abs(frame - self._reference)))

    def update(self, t_s: float, kind: ModalityKind, payload) -> float | None:
        """Feed one sample; returns the event time (s) when a new contact
        episode crosses the threshold."""
        s = self.score(kind, np.asarray(payload))
        above = s >= self.threshold
        if above:
            self._quiet_since_s = None
            if self._armed:
                self._armed = False
                return t_s
            return None
        if not self._armed:
            if self._quiet_since_s is None:
                self._quiet_since_s = t_s
            elif (t_s - self._quiet_since_s) * 1e3 >= self.debounce_ms:
                self._armed = True
                self._quiet_since_s = None
        return None


def detect_contact(detector: ContactDetector, t_s: float,
                   kind: ModalityKind, payload) -> float | None:
    """Functional wrapper over :meth:`ContactDetector.update`."""
    return detector.update(t_s, kind, payload)


# --- benchmark paths ------------------------------------------------------------


@dataclass(frozen=True)
class ReflexPathProfile:
    name: str
    acquisition_rate_hz: float
    acquisition_kind: ModalityKind
    transfer: StageModel
    subsample: StageModel
    inference: StageModel
    action_transfer: StageModel
    action: StageModel

    def stage_models(self):
        return (self.transfer, self.subsample, self.inference,
                self.action_transfer, self.action)

    def mean_us(self) -> float:
        period = 1e6 / self.acquisition_rate_hz
        return period / 2.0 + sum(m.mean_us for m in self.stage_models())


REFLEX_DEVICE = ReflexPathProfile(
    name="device",
    acquisition_rate_hz=1000.0,
    acquisition_kind=ModalityKind.SURFACE_PRESSURE,
    transfer=StageModel(248.0, 0.05),
    subsample=StageModel(393.0, 0.05),
    inference=StageModel(20.0, 0.05),
    action_transfer=StageModel(40.0, 0.05),
    action=StageModel(2.0, 0.05),
)

REFLEX_HOST = ReflexPathProfile(
    name="host",
    acquisition_rate_hz=1000.0,
    acquisition_kind=ModalityKind.SURFACE_PRESSURE,
    transfer=StageModel(250.0, 0.10),
    subsample=StageModel(6.0, 0.10),
    inference=StageModel(200.0, 0.10),
    action_transfer=StageModel(530.0, 0.10),
    action=StageModel(1010.0, 0.10),
)

REFLEX_LEGACY = ReflexPathProfile(
    name="legacy",
    acquisition_rate_hz=60.0,
    acquisition_kind=ModalityKind.VISUOTACTILE,
    transfer=StageModel(1600.0, 0.10),
    subsample=StageModel(6.0, 0.10),
    inference=StageModel(200.0, 0.10),
    action_transfer=StageModel(530.0, 0.10),
    action=StageModel(1010.0, 0.10),
)

REFLEX_PATHS = {"device": REFLEX_DEVICE, "host": REFLEX_HOST,
                "legacy": REFLEX_LEGACY}


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


def _trial_acquisition_us(profile: ReflexPathProfile, rng) -> float:
    """Sampling-phase delay measured by running the detector on a
    synthesized contact transient."""
    period_s = 1.0 / profile.acquisition_rate_hz
    t_event = rng.uniform(0.0, period_s)
    detector = ContactDetector(source=ModalityKind.SURFACE_PRESSURE,
                               threshold=5 * NOISE_SIGMA)
    # Impact transients rise far faster than one sample period: step onset
    # with a slow ring decay.
    for k in range(1, 64):
        t_k = k * period_s
        value = rng.normal(0.0, NOISE_SIGMA, size=4)
        if t_k >= t_event:
            value = value + PULSE_AMPLITUDE * np.exp(-(t_k - t_event) / 0.03)
        hit = detector.update(t_k, ModalityKind.SURFACE_PRESSURE, value)
        if hit is not None:
            return (hit - t_event) * 1e6
    raise RuntimeError("synthetic transient was never detected")


def reflex_benchmark(path: str | ReflexPathProfile, n_trials: int = 2000,
                     seed: int = 0) -> ReflexResult:
    """Event-to-action latency distribution over injected contacts.

    Matched trials across paths share per-trial draws: trial i consumes the
    same (sampling phase, stage jitter) sequence under every profile, so
    path comparisons are common-random-number experiments.
    """
    profile = REFLEX_PATHS[path] if isinstance(path, str) else path
    if n_trials < 100:
        raise errors.ConfigError("n_trials must be >= 100")
    latencies = np.empty(n_trials)
    for i in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence((0x4EF1, seed, i)))
        arc = ReflexStateMachine()
        acq_us = _trial_acquisition_us(profile, rng)
        arc.on_contact(0)
        z = rng.standard_normal(5)
        stage_us = sum(m.sample(np.array([zz]))[0]
                       for m, zz in zip(profile.stage_models(), z))
        total = acq_us + stage_us
        arc.on_action(int(total * 1000))
        arc.reset()
        latencies[i] = total
    return ReflexResult(path=profile.name, n_trials=n_trials,
                        latencies_us=latencies)
