"""Classification experiments on synthesized data.

Three analyses live here: the gas-sensing material classifier (per-channel
means over an integration window into a 4-64-6 network), the multimodal
action/material fusion classifier (compact per-modality feature encoders,
concatenated into ``nn``'s MLP with a shared trunk and two named heads),
and the liquid-level analysis of container tap ring-downs.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, errors, nn, pool, synth
from .core import (ACTIONS, FORMATS, MATERIALS as CLS_MATERIALS, WINDOW_T, ModalityKind,
                   RecordLog, finger_of)
from .dsp import build_windows, decay_time, peak_frequency
from .synth import (
    GAS_MATERIALS,
    Event,
    ObjectSpec,
    ScenarioScript,
    gas_samples,
    gen_gas_approach,
    ring_frequency,
)

FINGER_INDEPENDENT = "finger_independent"
FINGER_DEPENDENT = "finger_dependent"

MODALITY_NAMES = ("visuotactile", "audio", "inertial", "pressure")

# The gas classifier's hidden width and Adam rate, and the default length of
# one approach; a fusion trial's stream rates (others default); a tap
# episode's audio envelope exceeds TAP_THRESHOLD_REL times its median until
# TAP_MIN_GAP_S passes below it.
GAS_HIDDEN, GAS_LR, GAS_APPROACH_S = 64, 0.1, 90.0
FUSION_RATES = {ModalityKind.VISUOTACTILE: 60.0, ModalityKind.SURFACE_AUDIO: 24_000.0}
TAP_THRESHOLD_REL, TAP_MIN_GAP_S = 6.0, 0.1

#: Most approaches per material of one ``make_gas_dataset`` call and most
#: trials per (action, material) class of one ``iter_fusion_windows`` call;
#: a count above is rejected before anything is synthesized.
MAX_APPROACHES, MAX_TRIALS_PER_CLASS = 10**5, 10**4


# --- gas sensing -----------------------------------------------------------------


@dataclass
class GasDataset:
    series: list               # list of (n, 4) arrays at FORMATS[GAS].rate_hz
    labels: np.ndarray         # index into GAS_MATERIALS


def make_gas_dataset(n_per_material: int = 60, duration_s: float = GAS_APPROACH_S,
                     seed: int = 0) -> GasDataset:
    """Synthesize repeated approach runs for each of ``GAS_MATERIALS``."""
    if not 1 <= n_per_material <= MAX_APPROACHES:
        raise errors.ConfigError(
            f"approaches per material must be in [1, {MAX_APPROACHES}], "
            f"got {n_per_material}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6A5)))
    series, labels = [], []
    for label, material in enumerate(GAS_MATERIALS):
        obj = ObjectSpec(material)
        for _ in range(n_per_material):
            series.append(gen_gas_approach(obj, duration_s, rng=rng))
            labels.append(label)
    return GasDataset(series=series, labels=np.array(labels))


@dataclass
class GasResult:
    accuracy: float
    integration_time_s: float
    n_train: int
    n_test: int
    confusion: np.ndarray


def _split(test_frac: float, labels: np.ndarray, rng):
    """Stratified 70/30 split; strata with a single sample stay in train."""
    train_idx, test_idx = [], []
    for label in np.unique(labels):
        idx = np.nonzero(labels == label)[0]
        idx = rng.permutation(idx)
        n_test = max(int(round(test_frac * idx.size)), 1) if idx.size >= 2 else 0
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return (np.array(sorted(train_idx), dtype=np.int64),
            np.array(sorted(test_idx), dtype=np.int64))


def _zscore(train: np.ndarray, test: np.ndarray):
    mu = train.mean(axis=0)
    sd = train.std(axis=0)
    sd[sd < 1e-12] = 1.0
    return (train - mu) / sd, (test - mu) / sd


def check_integration_times(times, duration_s: float) -> None:
    """Raise ``ConfigError`` unless there is at least one integration time
    and each is finite and in (0, held] s, held being the gas record of one
    ``duration_s`` approach (:func:`synth.gas_samples` at the gas rate)."""
    if not times:
        raise errors.ConfigError("need at least one integration time")
    held_s = gas_samples(duration_s) / FORMATS[ModalityKind.GAS].rate_hz
    for t in times:
        if not (math.isfinite(t) and 0 < t <= held_s):
            raise errors.ConfigError(
                f"integration time must be finite and in (0, {held_s}] s, "
                f"got {t}")


def gas_experiment(dataset: GasDataset, integration_time_s: float,
                   seed: int = 0, max_epochs: int = 300) -> GasResult:
    """Classify materials from per-channel means over the first
    ``integration_time_s`` seconds of each approach."""
    n_classes = len(GAS_MATERIALS)
    rate = FORMATS[ModalityKind.GAS].rate_hz
    check_integration_times(
        [integration_time_s], min(s.shape[0] for s in dataset.series) / rate)
    n_keep = max(gas_samples(integration_time_s), 1)
    feats = np.stack([s[:n_keep].mean(axis=0) for s in dataset.series])

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6A5E)))
    train_idx, test_idx = _split(0.3, dataset.labels, rng)
    if not test_idx.size:
        raise errors.EmptyDataset(
            "the split leaves no test rows: need at least 2 approaches per "
            "material")
    x_tr, x_te = _zscore(feats[train_idx], feats[test_idx])
    y_tr, y_te = dataset.labels[train_idx], dataset.labels[test_idx]

    spec = nn.MlpSpec((4, GAS_HIDDEN, n_classes))
    cfg = nn.TrainConfig(lr=GAS_LR, max_epochs=max_epochs, seed=seed)
    result = nn.train((x_tr, y_tr), spec, cfg)

    pred = np.argmax(result.model.forward_logits(x_te), axis=1)
    return GasResult(accuracy=float(np.mean(pred == y_te)),
                     integration_time_s=integration_time_s,
                     n_train=len(train_idx), n_test=len(test_idx),
                     confusion=_confusion(y_te, pred, n_classes))


def gas_integration_sweep(integration_times, n_seeds: int = 10,
                          n_per_material: int = 40) -> dict:
    """Mean test accuracy per integration time, averaged over seeds.

    Seed ``s`` builds its own dataset of ``GAS_APPROACH_S`` approaches and
    makes its own split and fits, all from ``s``, so each seed is one job of
    ``pool.ordered_map``; rows come back in seed order.  Inputs are checked
    here, before any job starts.
    """
    times = list(integration_times)
    if n_seeds < 1:
        raise errors.ConfigError(f"need at least one seed, got {n_seeds}")
    check_integration_times(times, GAS_APPROACH_S)
    jobs = [(times, n_per_material, s) for s in range(n_seeds)]
    acc = np.array(list(pool.ordered_map(_seed_accuracies, jobs)))
    return {"integration_times": times, "mean_accuracy": acc.mean(axis=0),
            "per_seed": acc}


def _seed_accuracies(times, n_per_material: int, seed: int) -> list:
    """One seed of the sweep: test accuracy at each integration time."""
    data = make_gas_dataset(n_per_material=n_per_material, seed=seed)
    return [gas_experiment(data, t, seed=seed).accuracy for t in times]


# --- fusion feature encoders --------------------------------------------------------


#: Side of the block grid a visuotactile frame is pooled to.
VT_GRID = 4


def _pool2d(frames: np.ndarray) -> np.ndarray:
    """Block-mean pooling of (t, h, w) down to (t, VT_GRID, VT_GRID)."""
    grid = VT_GRID
    t, h, w = frames.shape
    bh, bw = h // grid, w // grid
    return frames[:, :grid * bh, :grid * bw] \
        .reshape(t, grid, bh, grid, bw).mean(axis=(2, 4))


def encode_visuotactile(vt: np.ndarray) -> np.ndarray:
    # The channel mean as three adds, exact in float64 for uint8 pixels, then
    # the two divisions ``mean(axis=3) / 255.0`` makes, bit for bit; a
    # reduction over the length-3 axis costs four times as much.
    gray = vt[..., 0].astype(np.float64)                # (10, 120, 120)
    gray += vt[..., 1]
    gray += vt[..., 2]
    gray /= 3.0
    gray /= 255.0
    pooled = _pool2d(gray)                              # (10, 4, 4)
    motion = np.abs(np.diff(pooled, axis=0)).mean(axis=0)
    return np.concatenate([pooled.mean(axis=0).ravel(),
                           pooled.std(axis=0).ravel(),
                           motion.ravel()])


def encode_audio(audio: np.ndarray) -> np.ndarray:
    channels = FORMATS[ModalityKind.SURFACE_AUDIO].channels
    tiles = audio[:, :, 0].reshape(channels, WINDOW_T, -1)  # (channel, time, band)
    feats = []
    for c in range(channels):
        bands = tiles[c].mean(axis=0)                       # (64,)
        grouped = bands.reshape(8, 8).mean(axis=1)           # (8,)
        envelope = tiles[c].mean(axis=1)                     # (10,)
        feats.append(np.concatenate([grouped, envelope]))
    return np.concatenate(feats)


def _series_moments(x: np.ndarray) -> np.ndarray:
    """Per-column mean, std, min, max, mean |diff| of a (t, c) series."""
    d = np.abs(np.diff(x, axis=0)).mean(axis=0) if x.shape[0] > 1 \
        else np.zeros(x.shape[1])
    return np.concatenate([x.mean(axis=0), x.std(axis=0), x.min(axis=0),
                           x.max(axis=0), d])


def encode_inertial(inertial: np.ndarray) -> np.ndarray:
    x = inertial.astype(np.float64)
    mom = _series_moments(x)
    centered = x - x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd < 1e-12] = 1.0
    corr = [
        float((centered[:, i] * centered[:, j]).mean() / (sd[i] * sd[j]))
        for i, j in ((0, 1), (1, 2), (0, 2))
    ]
    return np.concatenate([mom, corr])


def encode_pressure(pressure: np.ndarray) -> np.ndarray:
    return _series_moments(pressure.astype(np.float64))


ENCODERS = {
    "visuotactile": lambda w: encode_visuotactile(w.visuotactile),
    "audio": lambda w: encode_audio(w.audio),
    "inertial": lambda w: encode_inertial(w.inertial),
    "pressure": lambda w: encode_pressure(w.pressure),
}


def encode_window(window, modalities=MODALITY_NAMES) -> dict:
    """Feature vector of each of ``modalities`` for one window, by name."""
    return {name: ENCODERS[name](window) for name in modalities}


def _window_features(window, modalities) -> dict:
    """The window's feature memo, filled for ``modalities``.

    Each (window, modality) vector is encoded at most once and kept,
    read-only, in a ``_features`` dict on the window instance itself
    (``WindowSample`` is frozen and unhashable, so it cannot key a dict).
    The window's arrays must not be written after its first encode: the
    memo would not see the change.
    """
    memo = window.__dict__.setdefault("_features", {})
    missing = [m for m in modalities if m not in memo]
    if missing:
        for name, vec in encode_window(window, missing).items():
            vec.flags.writeable = False
            memo[name] = vec
    return memo


# --- fusion dataset --------------------------------------------------------------


def fusion_trial_script(action: str, material: str, seed: int,
                        duration_s: float = 2.66) -> ScenarioScript:
    """One labelled trial: a single action class against one material."""
    obj = ObjectSpec(material)
    events = []
    if action == "tap":
        t = 0.15
        while t + 0.08 < duration_s - 0.05:
            events.append(Event(t, t + 0.08, synth.TAP, obj))
            t += 0.45
    else:
        kind = synth.SLIDE if action == "slide" else synth.STIR
        events.append(Event(0.05, duration_s - 0.05, kind, obj))
    return ScenarioScript(seed=seed, duration_s=duration_s, events=events,
                          rates=dict(FUSION_RATES))


def sampled_frames(script: ScenarioScript, stride_s: float) -> np.ndarray:
    """The visuotactile frames ``build_windows`` reads from each finger of
    ``run_scenario(script)`` at ``stride_s``, with the first and last frame
    that fix the frame grid: ``dsp.window_plan`` over the stream times the
    scenario would have, made without synthesizing any stream."""
    times, rates = {}, {}
    for kind in dsp.WINDOW_KINDS:
        _, t_ns, offsets = synth.stream_times(script, kind)
        rates[kind] = script.rate(kind)
        times[kind] = dsp.sample_times(t_ns, offsets, rates[kind])
    plan = dsp.window_plan(times, rates, stride_s)
    last = times[ModalityKind.VISUOTACTILE].size - 1
    return np.unique(np.concatenate([[0, last], *(f for _, f in plan)]))


def iter_fusion_windows(trials_per_class: int = 12, seed: int = 0,
                        duration_s: float = 2.66, stride_s: float = 0.665):
    """Yield (trial_index, WindowSample) lazily, trial by trial.

    Each (trial, finger) is one job of ``pool.ordered_map``
    (``_finger_windows``), so only a few trials' windows are held at a
    time.  Each trial makes only the visuotactile frames its windows read
    (``sampled_frames``: 30 of 160 per finger at the defaults); the windows
    are byte-equal to those cut from the full log.
    """
    if not 0 <= trials_per_class <= MAX_TRIALS_PER_CLASS:
        raise errors.ConfigError(
            f"trials per class must be in [0, {MAX_TRIALS_PER_CLASS}], "
            f"got {trials_per_class}")
    jobs = _fusion_jobs(trials_per_class, seed, duration_s, stride_s)
    with closing(pool.ordered_map(_finger_windows, jobs)) as results:
        for i, windows in enumerate(results):
            for w in windows:
                yield i // len(synth.FINGERS), w


def _fusion_jobs(trials_per_class: int, seed: int, duration_s: float,
                 stride_s: float) -> list:
    """The ``_finger_windows`` arguments of every (trial, finger), in trial
    order, then finger order."""
    return [(action, material,
             int(np.random.SeedSequence((seed, ai, mi, k)).generate_state(1)[0]),
             duration_s, stride_s, finger)
            for ai, action in enumerate(ACTIONS)
            for mi, material in enumerate(CLS_MATERIALS)
            for k in range(trials_per_class)
            for finger in synth.FINGERS]


def _finger_windows(action: str, material: str, trial_seed: int,
                    duration_s: float, stride_s: float, finger: int) -> list:
    """The windows of one finger of one fusion trial: its streams alone are
    the same as in the trial's full log, and ``build_windows`` cuts each
    finger on its own."""
    script = fusion_trial_script(action, material, seed=trial_seed,
                                 duration_s=duration_s)
    log = synth.run_scenario(replace(script, fingers=(finger,)),
                             frames=sampled_frames(script, stride_s))
    return build_windows(log, stride_s=stride_s,
                         labels={"action": action, "material": material})


@dataclass
class FusionResult:
    action_accuracy: float
    material_accuracy: float
    mode: str
    modalities: tuple
    lr: float
    n_train: int
    n_test: int
    confusion_action: np.ndarray
    confusion_material: np.ndarray

    @property
    def mean_accuracy(self) -> float:
        return 0.5 * (self.action_accuracy + self.material_accuracy)


LR_GRID = (0.003, 0.01, 0.03)
FUSION_HIDDEN = (96, 48)


def _predict(model: nn.MlpModel, x: np.ndarray):
    """Predicted (action, material) classes, per replica if stacked."""
    logits = model.forward_logits(x)
    return (np.argmax(logits["action"], axis=-1),
            np.argmax(logits["material"], axis=-1))


def check_modalities(modalities) -> tuple:
    """``modalities`` as a tuple; MissingModality unless it names one or
    more modalities from MODALITY_NAMES, each at most once."""
    modalities = tuple(modalities)
    if not modalities or len(set(modalities) & set(MODALITY_NAMES)) < len(modalities):
        raise errors.MissingModality(f"need distinct modalities from {list(MODALITY_NAMES)}, "
                                     f"got {list(modalities)}")
    return modalities


def fusion_experiment(windows, mode: str = FINGER_DEPENDENT,
                      modalities=MODALITY_NAMES, seed: int = 0,
                      max_epochs: int = 200,
                      shuffle_labels: bool = False) -> FusionResult:
    """Action/material classification from encoded windows.

    ``windows`` is an iterable of (trial, WindowSample) pairs, nothing
    else.  Finger-independent mode treats each finger's window as its own
    sample; finger-dependent mode concatenates the four fingers' features
    per (trial, window-start).  Features are encoded lazily: only the
    requested modalities, each at most once per window, memoized on the
    window so later calls over the same windows reuse them.  ``nn.train``
    fits a 96-48 ReLU trunk with action and material heads, full batch.
    The Adam learning rate is picked from LR_GRID on a validation split of
    the training set, the candidates trained side by side as the replicas
    of one model; the chosen rate is retrained on the full training set, and
    the result holds held-out accuracies plus confusion matrices.
    """
    modalities = check_modalities(modalities)
    feats = {}
    labels = {}
    for item in windows:
        if not (isinstance(item, tuple) and len(item) == 2):
            raise errors.ConfigError(f"not a (trial, WindowSample) pair: {type(item).__name__}")
        trial, w = item
        enc = _window_features(w, modalities)
        vec = np.concatenate([enc[m] for m in modalities])
        key = (trial, w.window_start_ns)
        feats.setdefault(key, {})[w.finger_id] = vec
        labels[key] = (ACTIONS.index(w.action_label),
                       CLS_MATERIALS.index(w.material_label))
    if not feats:
        raise errors.EmptyDataset("no windows supplied")

    if mode == FINGER_DEPENDENT:
        rows = [(np.concatenate([feats[k][f] for f in sorted(feats[k])]), k)
                for k in sorted(feats)]
    elif mode == FINGER_INDEPENDENT:
        rows = [(feats[k][f], k) for k in sorted(feats) for f in sorted(feats[k])]
    else:
        raise errors.ConfigError(f"unknown mode {mode!r}")
    x = np.stack([row for row, _ in rows])
    ya = np.array([labels[k][0] for _, k in rows])
    ym = np.array([labels[k][1] for _, k in rows])
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF0510)))
    if shuffle_labels:
        perm = rng.permutation(ya.size)
        ya = ya[perm]
        perm = rng.permutation(ym.size)
        ym = ym[perm]

    strata = ya * len(CLS_MATERIALS) + ym
    train_idx, test_idx = _split(0.3, strata, rng)
    x_tr, x_te = _zscore(x[train_idx], x[test_idx])

    spec = nn.MlpSpec((x.shape[1],) + FUSION_HIDDEN,
                      heads={"action": len(ACTIONS),
                             "material": len(CLS_MATERIALS)})
    y_tr = {"action": ya[train_idx], "material": ym[train_idx]}

    # Learning-rate grid search on a split of the training set, all
    # candidates in one stacked fit.
    val_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF051)))
    tr2, val = _split(0.25, strata[train_idx], val_rng)
    best_lr, best_acc = LR_GRID[0], -1.0
    if val.size:
        grid = nn.train((x_tr[tr2], {k: y[tr2] for k, y in y_tr.items()}),
                        spec, nn.TrainConfig(lr=LR_GRID, max_epochs=max_epochs,
                                             seed=seed))
        pa, pm = _predict(grid.model, x_tr[val])
        for lr, a, m in zip(LR_GRID, pa, pm):
            acc = 0.5 * (np.mean(a == y_tr["action"][val])
                         + np.mean(m == y_tr["material"][val]))
            if acc > best_acc:
                best_lr, best_acc = lr, acc

    final = nn.train((x_tr, y_tr), spec,
                     nn.TrainConfig(lr=best_lr, max_epochs=max_epochs, seed=seed))
    pa, pm = _predict(final.model, x_te)
    return FusionResult(
        action_accuracy=float(np.mean(pa == ya[test_idx])),
        material_accuracy=float(np.mean(pm == ym[test_idx])),
        mode=mode, modalities=modalities, lr=best_lr,
        n_train=len(train_idx), n_test=len(test_idx),
        confusion_action=_confusion(ya[test_idx], pa, len(ACTIONS)),
        confusion_material=_confusion(ym[test_idx], pm, len(CLS_MATERIALS)))


def _confusion(truth: np.ndarray, pred: np.ndarray, n: int) -> np.ndarray:
    """(n, n) int64 counts of (truth, predicted) class pairs, rows = truth."""
    return np.bincount(truth * n + pred, minlength=n * n).reshape(n, n)


def confusion_csv(matrix: np.ndarray, labels) -> str:
    """Render a confusion matrix (rows = truth) as CSV text."""
    labels = list(labels)
    lines = ["truth\\predicted," + ",".join(labels)]
    for name, row in zip(labels, matrix):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


# --- liquid level ---------------------------------------------------------------


@dataclass
class TapFeatures:
    t_start_s: float
    peak_hz: float
    tau_s: float
    predicted_fill: str


FILL_LEVELS = {"empty": 0.0, "half": 0.5, "full": 1.0}


def find_tap_episodes(audio: np.ndarray, rate_hz: float) -> list:
    """(start, stop) samples of each ring-down episode in the smoothed
    envelope, ending TAP_MIN_GAP_S after the episode's last loud sample."""
    import scipy.signal

    env = np.abs(scipy.signal.hilbert(audio))
    win = max(int(rate_hz * 0.002), 1)
    kernel = np.ones(win) / win
    env = np.convolve(env, kernel, mode="same")
    floor = np.median(env)
    thresh = max(TAP_THRESHOLD_REL * floor, 1e-9)
    above = np.flatnonzero(env > thresh)
    min_gap = int(TAP_MIN_GAP_S * rate_hz)
    runs = np.split(above, np.flatnonzero(np.diff(above) > min_gap) + 1)
    return [(int(r[0]), min(int(r[-1]) + min_gap + 1, env.size))
            for r in runs if r.size]


def classify_fill(peak_hz: float) -> str:
    """Nearest-centroid fill classification from the ring-down frequency."""
    best, best_err = None, np.inf
    for name, fill in FILL_LEVELS.items():
        err = abs(peak_hz - ring_frequency(fill))
        if err < best_err:
            best, best_err = name, err
    return best


def analyze_liquid(log: RecordLog, finger_id: int = 0) -> list:
    """Per-tap ring-down features and fill-level prediction from a recorded
    log's audio stream."""
    descs = [d for d in log.descriptors.values() if d.kind is ModalityKind.SURFACE_AUDIO
             and finger_of(d.stream_id) == finger_id]
    if not descs:
        raise errors.MissingModality(f"no audio stream for finger {finger_id}")
    desc = descs[0]
    frames = log.stream(desc.stream_id).payload
    if not len(frames):
        raise errors.NoTapsFound("audio stream is empty")
    audio = frames[:, 0].astype(np.float64)
    episodes = find_tap_episodes(audio, desc.rate_hz)
    results = []
    for i0, i1 in episodes:
        pad = int(0.005 * desc.rate_hz)
        seg = audio[max(i0 - pad, 0):i1]
        if seg.size < 256:
            continue
        try:
            f = peak_frequency(seg, desc.rate_hz)
            tau = decay_time(seg, desc.rate_hz)
        except (errors.NoOnset, errors.NonDecaying, errors.TooShort):
            continue
        results.append(TapFeatures(
            t_start_s=i0 / desc.rate_hz, peak_hz=f, tau_s=tau,
            predicted_fill=classify_fill(f)))
    if not results:
        raise errors.NoTapsFound("no tap ring-downs found in the log")
    return results
