"""The four benchmark workloads and the checks on their outputs.

Every workload is closed loop with one caller: the next operation starts
when the previous one has returned.  A workload repeats whole rounds of the
same operations on inputs made from its seed, so a run's share of failed
operations never depends on the seed or on the run length.  Each round has
two timed steps; ``step1_per_s`` and ``step2_per_s`` are operations of the
step's stated size per second, taken from the median time of the run's
timed steps.  Checks run between the timed steps and raise ``CheckFailed``.

    workload       step 1 operation                 step 2 operation
    fusion         one labelled fusion trial        one fusion_experiment fit
    optics_sweep   one scatter sweep                one specular render
    record_replay  one 3 s recording, written       one read + re-encode
    latency_gas    one latency study (crit. 01-03)  one gas sweep (crit. 09)
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import struct
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np

from touchlab import cli, experiments, link, optics, recordlog, reflex, synth
from touchlab.core import ModalityKind, ModalitySample, RecordLog, StreamDescriptor

from spans import span_seconds


class CheckFailed(Exception):
    """A workload output is wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def warm_synthesis() -> None:
    """Render the illumination background that ``synth`` caches for every
    visuotactile stream, so that set-up pays for it and no timed step does."""
    synth.gen_visuotactile([])


class Workload:
    """Shared round loop and step timing.  Subclasses build their inputs in
    ``__init__`` (part of set-up) and define ``run``."""

    #: operations in one timed step-1 block and one timed step-2 block
    STEP_OPS = (1, 1)

    def __init__(self, seed: int, workdir: str, rec):
        self.seed = seed
        self.rec = rec
        self.times = {"step1": [], "step2": []}
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def timed(self, step: str):
        with self.rec.span("bench." + step) as span:
            yield
        self.times[step].append(span_seconds(span))

    def loop(self, round_fn, deadline: float, min_rounds: int) -> None:
        """Run ``round_fn()`` back to back, at least ``min_rounds`` times,
        and end as near ``deadline`` (a ``perf_counter`` value) as whole
        rounds allow: the next round starts while it is predicted to end
        less than half a round past the deadline."""
        walls = []
        while len(walls) < min_rounds \
                or time.perf_counter() + statistics.median(walls) / 2 <= deadline:
            self.rec.trace_id += 1
            t0 = time.perf_counter()
            with self.rec.span("bench.round"):
                round_fn()
            walls.append(time.perf_counter() - t0)

    def rates(self) -> dict:
        return {f"{step}_per_s": ops / statistics.median(self.times[step])
                for step, ops in zip(("step1", "step2"), self.STEP_OPS)}


# --- fusion ----------------------------------------------------------------------

# Contract shapes from the WindowSample table in touchlab.core.
WINDOW_FIELDS = (("visuotactile", (10, 120, 120, 3), "uint8"),
                 ("inertial", (10, 3), "float32"),
                 ("pressure", (10, 4), "float32"),
                 ("audio", (40, 64, 1), "float32"))
FUSION_ACTIONS = ("slide", "tap", "stir")
FUSION_MATERIALS = ("wood", "plastic", "silicone")


class Fusion(Workload):
    """Nine short labelled trials (one per action x material class, 4
    fingers, 2.66 s, 60 fps, 24 kHz) cut into windows at a 0.665 s stride,
    then repeated fits over that window set."""

    TRIAL_S = 2.66
    WINDOW_S = 1.33
    STRIDE_S = 0.665
    FINGERS = 4
    #: (modalities, finger mode) per fit: the fusion model and the pressure
    #: ablation in both finger modes, as in criterion 10.
    FITS = ((experiments.MODALITY_NAMES, experiments.FINGER_DEPENDENT),
            (("pressure",), experiments.FINGER_DEPENDENT),
            (("pressure",), experiments.FINGER_INDEPENDENT))
    #: each head's chance level; the fused fit must average twice that
    CHANCE = 1.0 / 3.0
    STEP_OPS = (1, len(FITS))

    def __init__(self, seed, workdir, rec):
        super().__init__(seed, workdir, rec)
        warm_synthesis()
        starts = math.floor((self.TRIAL_S - self.WINDOW_S) / self.STRIDE_S + 1e-9) + 1
        self.windows_per_trial = self.FINGERS * starts
        self.pairs = None
        self.first_fits = None

    def run(self, start: float, seconds: float) -> None:
        self.loop(self.trial_round, start + seconds / 2, 1)
        self.loop(self.fit_round, start + seconds, 3)

    def trial_round(self) -> None:
        """Nine trials, each timed on its own: every ``next`` on the window
        generator is charged to the trial whose window it yields, and the
        first window of a trial carries that trial's synthesis and
        windowing."""
        windows = experiments.iter_fusion_windows(
            trials_per_class=1, seed=self.seed, duration_s=self.TRIAL_S,
            stride_s=self.STRIDE_S)
        trial_s, pairs = Counter(), []
        while True:
            with self.rec.span("bench.step1") as span:
                pair = next(windows, None)
            if pair is None:
                break
            trial_s[pair[0]] += span_seconds(span)
            pairs.append(pair)
        self.times["step1"].extend(trial_s.values())
        self.attempted += len(trial_s)
        self.check_windows(pairs)
        if self.pairs is None:
            self.pairs = pairs

    def check_windows(self, pairs) -> None:
        per_trial = Counter(trial for trial, _ in pairs)
        expect(sorted(per_trial) == list(range(9)), f"trials {sorted(per_trial)}")
        expect(set(per_trial.values()) == {self.windows_per_trial},
               f"windows per trial {dict(per_trial)} != {self.windows_per_trial}")
        per_finger = Counter((trial, w.finger_id) for trial, w in pairs)
        expect(set(per_finger.values()) == {self.windows_per_trial // self.FINGERS},
               "windows are not spread evenly over the four fingers")
        for trial, w in pairs:
            for name, shape, dtype in WINDOW_FIELDS:
                arr = getattr(w, name)
                expect(arr.shape == shape and arr.dtype == np.dtype(dtype),
                       f"{name} is {arr.shape} {arr.dtype}, want {shape} {dtype}")
            expect(0.0 <= w.audio.min() and w.audio.max() <= 1.0, "audio outside [0, 1]")
            want = (FUSION_ACTIONS[trial // 3], FUSION_MATERIALS[trial % 3])
            expect((w.action_label, w.material_label) == want,
                   f"trial {trial} labelled {w.action_label}/{w.material_label}")

    def fit_round(self) -> None:
        with self.timed("step2"):
            results = [experiments.fusion_experiment(self.pairs, mode=mode,
                                                     modalities=mods, seed=self.seed)
                       for mods, mode in self.FITS]
        self.attempted += self.STEP_OPS[1]
        n_windows = len(self.pairs)
        for (mods, mode), r in zip(self.FITS, results):
            rows = n_windows // self.FINGERS if mode == experiments.FINGER_DEPENDENT \
                else n_windows
            expect(r.n_train + r.n_test == rows, f"{mode}: {r.n_train}+{r.n_test} != {rows}")
            for conf, acc in ((r.confusion_action, r.action_accuracy),
                              (r.confusion_material, r.material_accuracy)):
                expect(conf.sum() == r.n_test, f"confusion sums to {conf.sum()}, "
                                               f"test count {r.n_test}")
                expect(abs(np.trace(conf) / r.n_test - acc) < 1e-12,
                       "accuracy disagrees with the confusion matrix")
        fused = results[0]
        expect(min(fused.action_accuracy, fused.material_accuracy) > self.CHANCE
               and fused.mean_accuracy >= 2 * self.CHANCE,
               f"all-modality accuracies {fused.action_accuracy:.3f}/"
               f"{fused.material_accuracy:.3f} not well above chance")
        summary = [(r.action_accuracy, r.material_accuracy, r.lr) for r in results]
        if self.first_fits is None:
            self.first_fits = summary
        expect(summary == self.first_fits, "a repeated fit gave other accuracies")


# --- optics_sweep ----------------------------------------------------------------


class OpticsSweep(Workload):
    """``scatter_sweep`` over the default scatter angles (a background and a
    nine-contact render per angle), then the same specular render
    ``RENDERS`` times, each at ``PHOTONS`` photons per render."""

    PHOTONS = 200_000
    #: a specular render takes a quarter second; one per round left its
    #: median at the mercy of a single slow render
    RENDERS = 4
    LABELS = ["1deg", "5deg", "10deg", "15deg", "20deg", "25deg", "lambertian"]

    def __init__(self, seed, workdir, rec):
        super().__init__(seed, workdir, rec)
        self.surface = optics.ScatterSurface.specular()
        self.first = None

    def run(self, start: float, seconds: float) -> None:
        self.loop(self.round, start + seconds, 2)

    def round(self) -> None:
        with self.timed("step1"):
            sweep = optics.scatter_sweep(photons=self.PHOTONS, seed=self.seed)
        images = []
        for _ in range(self.RENDERS):
            with self.timed("step2"):
                images.append(optics.render(self.surface, photons=self.PHOTONS,
                                            seed=self.seed))
        self.attempted += 1 + self.RENDERS

        rows = sweep["rows"]
        expect([r["alpha"] for r in rows] == self.LABELS, "unexpected sweep points")
        expect(all(math.isfinite(v) for r in rows for k, v in r.items() if k != "alpha"),
               "non-finite sweep metric")
        spread = [r["std_over_mean"] for r in rows]
        expect(all(a >= b for a, b in zip(spread, spread[1:])),
               f"std_over_mean increases from 1 deg to Lambertian: {spread}")
        values = images[0].values
        expect(values.shape == (120, 120, 3), f"image shape {values.shape}")
        expect(np.all(np.isfinite(values)) and values.min() >= 0.0,
               "image has non-finite or negative taxels")
        glints = optics.count_glints(images[0])
        expect(glints == optics.LedRing().count,
               f"specular render shows {glints} glints, want {optics.LedRing().count}")
        if self.first is None:
            self.first = (rows, values.tobytes())
        expect(rows == self.first[0], "a repeat sweep with the same seed differs")
        expect(all(img.values.tobytes() == self.first[1] for img in images),
               "a repeat render with the same seed differs")


# --- record_replay ---------------------------------------------------------------

# D36R layout from the recordlog docstring: header, one descriptor per
# stream, one chunk header per sample.
D36R_HEADER = 4 + 2 + 2
D36R_DESCRIPTOR = 2 + 1 + 8 + 2 + 1 + 2 + 2
D36R_CHUNK = 2 + 8 + 4

#: Default rates (Hz) and payload bytes per sample of the six modalities, as
#: documented in the README.  Audio travels in 10 ms blocks of 4 x int16.
D36R_STREAMS = (("visuotactile", 240.0, 120 * 120 * 3),
                ("surface_pressure", 1000.0, 4 * 4),
                ("inertial", 200.0, 3 * 4),
                ("gas", 1.0, 4 * 4),
                ("heat", 1.0, 1 * 4))
AUDIO_RATE_HZ, AUDIO_BLOCK_S, AUDIO_FRAME_BYTES = 48_000.0, 0.01, 4 * 2


def d36r_size(duration_s: float, fingers: int) -> int:
    """Bytes of a D36R log of ``fingers`` fingers x six default-rate streams."""
    per_finger = 0
    for _, rate, payload in D36R_STREAMS:
        n = max(round(duration_s * rate), 1)
        per_finger += n * (D36R_CHUNK + payload)
    n_audio = round(duration_s * AUDIO_RATE_HZ)
    blocks = math.ceil(n_audio / round(AUDIO_BLOCK_S * AUDIO_RATE_HZ))
    per_finger += blocks * D36R_CHUNK + n_audio * AUDIO_FRAME_BYTES
    return D36R_HEADER + fingers * 6 * D36R_DESCRIPTOR + fingers * per_finger


def log_digest(log) -> str:
    """Digest of a RecordLog's descriptors and of every sample in order."""
    h = hashlib.sha256()
    for sid in sorted(log.descriptors):
        h.update(repr(log.descriptors[sid]).encode())
    for s in log.samples:
        p = np.ascontiguousarray(s.payload)
        h.update(struct.pack("<HQ", s.stream_id, s.t_ns))
        h.update(f"{p.dtype.str}{p.shape}".encode())
        h.update(p)
    return h.hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 23), b""):
            h.update(block)
    return h.hexdigest()


def malformed_logs() -> dict:
    """Five corrupt variants of one fixed two-stream log.  None depends on
    the workload seed."""
    log = RecordLog()
    for sid, kind in ((2, ModalityKind.SURFACE_PRESSURE), (3, ModalityKind.INERTIAL)):
        log.add_stream(StreamDescriptor.default(sid, kind))
    for k in range(4):
        for sid, n in ((2, 4), (3, 3)):
            log.append(ModalitySample(sid, k * 1_000_000, np.full(n, k, dtype="<f4")))
    data = recordlog.log_to_bytes(log)
    first = D36R_HEADER                      # first descriptor
    second = first + D36R_DESCRIPTOR         # second descriptor

    def patched(offset, raw):
        out = bytearray(data)
        out[offset:offset + len(raw)] = raw
        return bytes(out)

    return {
        "bad_magic": patched(0, b"WXYZ"),
        "truncated": data[:-5],
        "unknown_kind": patched(first + 2, bytes([99])),
        "duplicate_stream": patched(second, data[first:first + 2]),
        "zero_rate": patched(first + 3, struct.pack("<d", 0.0)),
    }


def replay_exit_code(path):
    """``touchlab replay <path>``; None when it raises instead of exiting."""
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        try:
            return cli.main(["replay", str(path)])
        except Exception:  # an escaped error is the fault being counted
            return None


class RecordReplay(Workload):
    """One 3 s, 4-finger scenario at default rates (all six modalities)
    synthesized and written with ``write_log``, read back with ``read_log``
    and re-encoded with ``log_to_bytes``; then five malformed logs replayed
    through ``cli.main``, each of which must exit 2."""

    DURATION_S = 3.0
    FINGERS = 4
    #: reads per recording; a read takes half a second, so one per round
    #: gave too few samples for a steady median
    REPLAYS = 2
    #: a round takes about 6 s; three give step 1 a median that one slow
    #: recording cannot set
    MIN_ROUNDS = 3
    SOLIDS = ("wood", "plastic", "silicone", "rubber", "cheese", "soap",
              "butter", "coffee-powder")

    def __init__(self, seed, workdir, rec):
        super().__init__(seed, workdir, rec)
        warm_synthesis()
        self.script = self.scenario(seed)
        self.path = os.path.join(workdir, "recording.d36r")
        self.bad_paths = []
        for name, data in malformed_logs().items():
            path = os.path.join(workdir, f"{name}.d36r")
            with open(path, "wb") as fh:
                fh.write(data)
            self.bad_paths.append(path)
        self.expected_bytes = d36r_size(self.DURATION_S, self.FINGERS)
        self.first = None

    @classmethod
    def scenario(cls, seed: int) -> synth.ScenarioScript:
        """A slide, a tap train, a stir and a hold on every finger, with
        materials and timing drawn from ``seed``; the same amount of
        synthesis work for every seed."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4EC)))
        mats = [synth.ObjectSpec(str(m)) for m in rng.choice(cls.SOLIDS, size=4)]
        u = rng.uniform(0.0, 0.1, size=4)
        events = [synth.Event(0.1 + u[0], 0.7 + u[0], synth.SLIDE, mats[0])]
        events += [synth.Event(t, t + 0.06, synth.TAP, mats[1])
                   for t in 0.85 + u[1] + 0.25 * np.arange(3)]
        events += [synth.Event(1.5 + u[2], 2.1 + u[2], synth.STIR, mats[2]),
                   synth.Event(2.25 + u[3], 2.85 + u[3], synth.HOLD, mats[3])]
        return synth.ScenarioScript(seed=seed, duration_s=cls.DURATION_S,
                                    events=events,
                                    fingers=tuple(range(cls.FINGERS)))

    def run(self, start: float, seconds: float) -> None:
        self.loop(self.round, start + seconds, self.MIN_ROUNDS)

    def round(self) -> None:
        with self.timed("step1"):
            log = synth.run_scenario(self.script)
            n = recordlog.write_log(log, self.path)
        self.attempted += 1
        expect(n == self.expected_bytes == os.path.getsize(self.path),
               f"log is {n} bytes, D36R layout gives {self.expected_bytes}")
        memory = log_digest(log)
        del log
        on_disk = file_digest(self.path)

        for _ in range(self.REPLAYS):
            with self.timed("step2"):
                back = recordlog.read_log(self.path)
                data = recordlog.log_to_bytes(back)
            self.attempted += 1
            expect(hashlib.sha256(data).hexdigest() == on_disk,
                   "write -> read -> re-encode changed the bytes")
            del data
            expect(log_digest(back) == memory,
                   "decoded payloads differ from the written ones")
            del back
        os.remove(self.path)
        if self.first is None:
            self.first = on_disk
        expect(on_disk == self.first, "the same scenario recorded other bytes")

        for path in self.bad_paths:
            self.attempted += 1
            self.failed += replay_exit_code(path) != cli.EXIT_CONFIG

    def alloc_ratios(self) -> dict:
        """Traced run only: tracemalloc peak of one ``write_log`` and one
        ``read_log``, each divided by the file size.  Made after the timed
        rounds, since tracemalloc slows every allocation."""
        import tracemalloc

        log = synth.run_scenario(self.script)
        tracemalloc.start()
        try:
            n = recordlog.write_log(log, self.path)
            write_peak = tracemalloc.get_traced_memory()[1]
            del log
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = recordlog.read_log(self.path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
            del back
        finally:
            tracemalloc.stop()
            os.remove(self.path)
        return {"write": write_peak / n, "read": read_peak / n}


# --- latency_gas -----------------------------------------------------------------


class LatencyGas(Workload):
    """The small analyses: pipeline runs of both paths and both depth sweeps
    (criteria 01 and 03) and the reflex benchmark on every path (criterion
    02) in step 1; the gas integration sweep (criterion 09) in step 2."""

    PIPELINE_RUNS = 10_000
    REFLEX_TRIALS = 500
    GAS_TIMES = (6.0, 15.0, 30.0, 60.0, 90.0)
    GAS_SEEDS = 2
    GAS_PER_MATERIAL = 40

    def __init__(self, seed, workdir, rec):
        super().__init__(seed, workdir, rec)
        host = link.HOST_PATH
        self.host_stage_sum = (host.transfer.mean_us + host.subsample.mean_us
                               + host.action_transfer.mean_us + host.action.mean_us)
        self.first = None

    def run(self, start: float, seconds: float) -> None:
        self.loop(self.round, start + seconds, 2)

    def round(self) -> None:
        seed = self.seed
        with self.timed("step1"):
            host = link.run_pipeline(link.HOST_PATH, n_runs=self.PIPELINE_RUNS, seed=seed)
            device = link.run_pipeline(link.DEVICE_PATH, n_runs=self.PIPELINE_RUNS, seed=seed)
            flat = link.run_pipeline(link.HOST_PATH.without_jitter(),
                                     n_runs=self.PIPELINE_RUNS, seed=seed)
            plain = link.mlp_depth_sweep(depths=range(0, 13), hw_accel=False, seed=seed)
            accel = link.mlp_depth_sweep(depths=range(0, 61, 5), hw_accel=True, seed=seed)
            arcs = {p: reflex.reflex_benchmark(p, n_trials=self.REFLEX_TRIALS, seed=seed)
                    for p in ("device", "host", "legacy")}
        with self.timed("step2"):
            gas = experiments.gas_integration_sweep(
                self.GAS_TIMES, n_seeds=self.GAS_SEEDS,
                n_per_material=self.GAS_PER_MATERIAL)
        self.attempted += 9

        total = flat.stats["total"]["mean"]
        expect(math.isclose(total, self.host_stage_sum, rel_tol=1e-12),
               f"no-jitter host total {total} != stage means {self.host_stage_sum}")
        expect(plain["first_exceeding_depth"] == 10,
               f"budget first exceeded at depth {plain['first_exceeding_depth']}")
        expect({r["depth"]: r for r in accel["rows"]}[60]["within_budget"],
               "depth 60 misses the budget with acceleration")
        for sweep in (plain, accel):
            totals = [r["total_mean_us"] for r in sweep["rows"]]
            expect(all(b > a for a, b in zip(totals, totals[1:])),
                   "depth sweep totals not increasing")
        dev, hst, leg = (arcs[p].stats for p in ("device", "host", "legacy"))
        expect(abs(dev["mean"] / 1200.0 - 1.0) <= 0.15, f"device reflex {dev['mean']:.0f} us")
        expect(abs(hst["mean"] / 2500.0 - 1.0) <= 0.15, f"host reflex {hst['mean']:.0f} us")
        expect(leg["mean"] > 6000.0, f"legacy reflex {leg['mean']:.0f} us")
        expect(dev["std"] < hst["std"], "device jitter not below host")
        expect(np.all(arcs["device"].latencies_us < arcs["host"].latencies_us),
               "device path loses a matched trial")
        acc = np.asarray(gas["mean_accuracy"])
        expect(acc[-1] >= 0.9, f"gas accuracy {acc[-1]:.3f} at full integration")
        expect(np.all(np.diff(acc) >= -1e-12), f"gas accuracy decreases: {acc}")

        outputs = (host.stats, device.stats, [r["total_mean_us"] for r in plain["rows"]],
                   [a.stats for a in arcs.values()], acc.tolist())
        if self.first is None:
            self.first = outputs
        expect(outputs == self.first, "a repeated analysis gave other numbers")


WORKLOADS = {
    "fusion": Fusion,
    "optics_sweep": OpticsSweep,
    "record_replay": RecordReplay,
    "latency_gas": LatencyGas,
}
