"""Per-layer metrics of the traced run, derived from the recorded spans.

Each metric names the ``touchlab`` module it measures.  A layer that a
workload does not exercise reads 0 on that workload.  Times are medians
over the run's calls, so one slow call does not set them.
"""

from __future__ import annotations

import statistics

from touchlab.core import ModalityKind

WINDOW_FRAMES = 10  # visuotactile frames placed in each window


def _log_counts(log) -> dict:
    vt = {sid for sid, d in log.descriptors.items()
          if d.kind is ModalityKind.VISUOTACTILE}
    return {"samples": len(log.samples),
            "vt_frames": sum(1 for s in log.samples if s.stream_id in vt)}


#: span name -> tag(arguments, result) storing the counts the metrics need
TAGGERS = {
    "synth.run_scenario": lambda a, r: _log_counts(r),
    "recordlog.read_log": lambda a, r: _log_counts(r),
    "recordlog.write_log": lambda a, r: {"bytes": r, "chunks": len(a["log"].samples)},
    "dsp.build_windows": lambda a, r: {"windows": len(r),
                                       "vt_frames": _log_counts(a["log"])["vt_frames"]},
    "experiments.encode_window": lambda a, r: {"window": id(a["window"])},
    "optics.render": lambda a, r: {"surface": a["surface"].mode,
                                   "contacts": len(a["contacts"])},
    "reflex.reflex_benchmark": lambda a, r: {"path": r.path},
}

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("cli.import_s", "s"),
    ("synth.run_scenario_s", "s"),
    ("synth.vt_frames", "count"),
    ("dsp.frames_used_ratio", "ratio"),
    ("core.samples_per_log", "count"),
    ("dsp.build_windows_s", "s"),
    ("experiments.encode_window_ms", "ms"),
    ("experiments.encodes_per_window", "ratio"),
    ("experiments.fusion_experiment_s", "s"),
    ("nn.adam_step_us", "us"),
    ("nn.adam_steps_per_fit", "count"),
    ("optics.render_s.gaussian.bg", "s"),
    ("optics.render_s.gaussian.contacts", "s"),
    ("optics.render_s.lambertian.bg", "s"),
    ("optics.render_s.lambertian.contacts", "s"),
    ("optics.render_s.specular.bg", "s"),
    ("optics.sweep_metrics_s", "s"),
    ("recordlog.write_log_s", "s"),
    ("recordlog.read_log_s", "s"),
    ("recordlog.log_to_bytes_s", "s"),
    ("recordlog.chunks", "count"),
    ("recordlog.mb", "MB"),
    ("recordlog.write_peak_alloc_x", "x"),
    ("recordlog.read_peak_alloc_x", "x"),
    ("link.run_pipeline_ms", "ms"),
    ("link.mlp_depth_sweep_ms", "ms"),
    ("reflex.reflex_benchmark_s.device", "s"),
    ("reflex.reflex_benchmark_s.host", "s"),
    ("reflex.reflex_benchmark_s.legacy", "s"),
    ("experiments.make_gas_dataset_ms", "ms"),
    ("nn.train_ms", "ms"),
)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec, import_s: list) -> dict:
    """Every metric in ``PER_LAYER`` -> value, from the spans in ``rec``.
    The two ``*_peak_alloc_x`` metrics read 0 here; the caller fills them
    in on ``record_replay``."""

    def times(name, scale=1.0, parent=None):
        return [rec.duration_s(i) * scale for i in rec.select(name, parent)]

    def attrs(name):  # spans of calls that raised carry no attributes
        return [a for a in map(rec.attrs, rec.select(name)) if a]

    scenarios = attrs("synth.run_scenario")
    windowing = attrs("dsp.build_windows")
    writes = attrs("recordlog.write_log")
    encodes = attrs("experiments.encode_window")
    fusion_fits = len(rec.select("experiments.fusion_experiment"))
    fits = fusion_fits + len(rec.select("experiments.gas_experiment"))
    renders = {}
    for i in rec.select("optics.render"):
        a = rec.attrs(i)
        key = f"{a['surface']}.{'contacts' if a['contacts'] else 'bg'}"
        renders.setdefault(key, []).append(rec.duration_s(i))
    reflex_s = {}
    for i in rec.select("reflex.reflex_benchmark"):
        reflex_s.setdefault(rec.attrs(i)["path"], []).append(rec.duration_s(i))

    values = {
        "cli.import_s": _median(import_s),
        "synth.run_scenario_s": _median(times("synth.run_scenario")),
        "synth.vt_frames": _median(a["vt_frames"] for a in scenarios),
        "dsp.frames_used_ratio": _ratio(
            sum(a["windows"] for a in windowing) * WINDOW_FRAMES,
            sum(a["vt_frames"] for a in windowing)),
        "core.samples_per_log": _median(
            a["samples"] for a in scenarios + attrs("recordlog.read_log")),
        "dsp.build_windows_s": _median(times("dsp.build_windows")),
        "experiments.encode_window_ms": _median(times("experiments.encode_window", 1e3)),
        "experiments.encodes_per_window": _ratio(
            len(encodes), len({a["window"] for a in encodes}) * fusion_fits),
        "experiments.fusion_experiment_s": _median(times("experiments.fusion_experiment")),
        "nn.adam_step_us": _median(times("nn.AdamState.step", 1e6)),
        "nn.adam_steps_per_fit": _ratio(len(rec.select("nn.AdamState.step")), fits),
        "optics.sweep_metrics_s": _median(
            rec.duration_s(i) - rec.child_time_s(i, "optics.render")
            for i in rec.select("optics.scatter_sweep")),
        "recordlog.write_log_s": _median(times("recordlog.write_log")),
        "recordlog.read_log_s": _median(times("recordlog.read_log", parent="bench.step2")),
        "recordlog.log_to_bytes_s": _median(
            times("recordlog.log_to_bytes", parent="bench.step2")),
        "recordlog.chunks": _median(a["chunks"] for a in writes),
        "recordlog.mb": _median(a["bytes"] / 1e6 for a in writes),
        "recordlog.write_peak_alloc_x": 0.0,
        "recordlog.read_peak_alloc_x": 0.0,
        "link.run_pipeline_ms": _median(
            times("link.run_pipeline", 1e3, parent="bench.step1")),
        "link.mlp_depth_sweep_ms": _median(times("link.mlp_depth_sweep", 1e3)),
        "experiments.make_gas_dataset_ms": _median(times("experiments.make_gas_dataset", 1e3)),
        "nn.train_ms": _median(times("nn.train", 1e3)),
    }
    for key in ("gaussian.bg", "gaussian.contacts", "lambertian.bg",
                "lambertian.contacts", "specular.bg"):
        values[f"optics.render_s.{key}"] = _median(renders.get(key, ()))
    for path in ("device", "host", "legacy"):
        values[f"reflex.reflex_benchmark_s.{path}"] = _median(reflex_s.get(path, ()))
    return values
