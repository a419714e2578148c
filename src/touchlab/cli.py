"""Command-line front door.

Subcommands: record, replay, bench-latency, bench-reflex, bench-optics,
bench-mtf, train-gas, train-fusion, analyze-liquid, report.

Reports are machine-first (CSV or JSON) and embed the seed, a hash of the
effective configuration, and the artifact version.  Exit codes are stable:
0 success, 2 configuration/parse error, 3 I/O error, 4 empty result.
``main`` is the one error boundary: ``OSError`` exits 3, a library
``TouchlabError`` 2, or 4 for an empty dataset or a log without taps.  It
refuses a negative ``--seed`` with exit 2 before any command runs.  It is
also the one place a report is written: a report command returns its rows
and extra fields and prints its summary lines to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, errors, experiments, link, optics, reflex, synth
from .core import FORMATS, ModalityKind
from .recordlog import read_log, write_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4

OUT_DIR_ENV = "TOUCHLAB_OUT_DIR"

REPORT_SCHEMA = 1

_RATE_KEYS = {k.name.lower(): k for k in ModalityKind}


def _config_hash(args: dict) -> str:
    payload = json.dumps({k: v for k, v in sorted(args.items())
                          if k not in ("out", "func", "command")},
                         default=str, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _report(command: str, args: dict, rows: list, extra: dict) -> dict:
    return {"schema": REPORT_SCHEMA, "command": command, "version": __version__,
            "seed": args.get("seed"), "config_hash": _config_hash(args),
            "rows": rows, **extra}


def _emit(report: dict, out: str | None, fmt: str) -> None:
    """Write the report to ``out`` (or the env default dir), else stdout."""
    if out is None:
        out_dir = os.environ.get(OUT_DIR_ENV)
        if out_dir:
            name = f"{report['command']}-{report.get('seed', 0)}.{fmt}"
            out = os.path.join(out_dir, name)
    text = _render(report, fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        print(text)


def _render(report: dict, fmt: str) -> str:
    """JSON, or CSV: a ``# key=<JSON>`` line per non-row field, then the rows."""
    if fmt == "json":
        return json.dumps(report, indent=2, default=_jsonable)
    lines = [f"# {key}={json.dumps(value, default=_jsonable)}"
             for key, value in report.items() if key != "rows"]
    rows = report["rows"]
    if rows:
        cols = list(rows[0])
        lines.append(",".join(cols))
        lines += [",".join(_csv_cell(row.get(c)) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _jsonable(obj):
    """A numpy value as plain JSON; any other unknown type is a TypeError."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return json.JSONEncoder().default(obj)


# --- scenario files --------------------------------------------------------------


def load_scenario(path: str) -> synth.ScenarioScript:
    """Parse a scenario file (JSON, schema in the README) into a script."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise errors.ScenarioParseError(
            f"{path}:{exc.lineno}:{exc.colno}: scenario is not valid JSON: "
            f"{exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise errors.ScenarioParseError(
            f"{path}: scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise errors.ScenarioParseError(f"{path}: scenario must be a JSON object")

    try:
        rates = {}
        for key, value in doc.get("rates", {}).items():
            if key not in _RATE_KEYS:
                raise errors.ScenarioParseError(f"unknown rate key {key!r}")
            rates[_RATE_KEYS[key]] = float(value)
        events = []
        for i, ev in enumerate(doc.get("events", [])):
            try:
                obj = synth.ObjectSpec(ev["material"], **{
                    k: float(ev[k]) for k in ("fill_fraction", "temperature_c")
                    if ev.get(k) is not None})
                events.append(synth.Event(
                    t_start=float(ev["t_start"]), t_end=float(ev["t_end"]),
                    kind=ev["kind"], obj=obj,
                    finger_ids=tuple(ev.get("finger_ids", synth.FINGERS))))
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                raise errors.ScenarioParseError(
                    f"event {i}: {exc}") from exc
        return synth.ScenarioScript(
            seed=doc.get("seed", 0),
            duration_s=float(doc["duration_s"]),
            events=events,
            fingers=tuple(doc.get("fingers", synth.FINGERS)),
            rates=rates)
    except KeyError as exc:
        raise errors.ScenarioParseError(
            f"{path}: missing required field {exc}") from exc
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise errors.ScenarioParseError(f"{path}: {exc}") from exc


# --- subcommands -----------------------------------------------------------------


def cmd_record(args) -> None:
    script = load_scenario(args.scenario)
    if args.seed is not None:
        script = dataclasses.replace(script, seed=args.seed)
    log = synth.run_scenario(script)
    n = write_log(log, args.out)
    print(f"wrote {args.out}: {n} bytes, {log.chunk_streams.size} samples, "
          f"{len(log.descriptors)} streams")


def cmd_replay(args) -> None:
    log = read_log(args.log)
    if args.out:
        write_log(log, args.out)
    print(f"{args.log}: {log.chunk_streams.size} samples over "
          f"{len(log.descriptors)} streams")
    for sid in sorted(log.descriptors):
        d = log.descriptors[sid]
        print(f"  stream {sid}: {d.kind.name.lower()} @ {d.rate_hz:g} Hz "
              f"x{FORMATS[d.kind].channels}, {len(log.stream(sid))} samples")
    if args.out:
        print(f"replayed to {args.out}")


def cmd_bench_latency(args) -> tuple:
    budget = args.budget_us
    link.latency_budget_check(0.0, budget)  # a bad budget exits before any run
    rows, verdict = [], {}
    for name, path in (("host", link.HOST_PATH), ("device", link.DEVICE_PATH)):
        profile = path.without_jitter() if args.no_jitter else path
        stats = link.run_pipeline(profile, link.Workload(), n_runs=args.runs,
                                  seed=args.seed)
        for stage in (*link.STAGE_NAMES, "total"):
            rows.append({"path": name, "stage": stage, **stats.stats[stage]})
        check = link.latency_budget_check(stats, budget)
        verdict[name] = {"total_us": check.total_us,
                         "margin_us": check.margin_us, "passed": check.passed}
        print(f"{name}: total mean {check.total_us:.0f} us, budget {budget:.0f} us -> "
              f"{'pass' if check.passed else 'fail'} "
              f"(margin {check.margin_us:+.0f} us)", file=sys.stderr)
    return rows, {"budget_us": budget, "verdict": verdict}


def cmd_bench_reflex(args) -> tuple:
    names = ("device", "host", "legacy") if args.path == "all" else (args.path,)
    rows = []
    for name in names:
        res = reflex.reflex_benchmark(name, n_trials=args.trials,
                                      seed=args.seed)
        rows.append({"path": name, **res.stats})
        print(f"{name}: mean {res.stats['mean'] / 1000:.3f} ms, "
              f"std {res.stats['std']:.0f} us", file=sys.stderr)
    return rows, {}


def _float_token(token: str, flag: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise errors.ConfigError(f"{flag}: not a number: {token!r}") from None


def _list_flag(text: str, flag: str, words=()) -> list:
    """The comma-separated values of ``flag``: each token a number, or kept
    as a string when it is one of ``words``; empty tokens are dropped."""
    values = [token if token in words else _float_token(token, flag)
              for token in (t.strip() for t in text.split(",")) if token]
    if not values:
        raise errors.ConfigError(f"empty {flag}")
    return values


def cmd_bench_optics(args) -> tuple:
    alphas = _list_flag(args.alpha_sweep, "--alpha-sweep",
                        (optics.LAMBERTIAN, optics.SPECULAR))
    result = optics.scatter_sweep(alphas=alphas, photons=args.photons,
                                  seed=args.seed)
    for row in result["rows"]:
        print(f"{row['alpha']:>11}: std/mean={row['std_over_mean']:.3f} "
              f"cnr_score={row['cnr_score']:.2f} obj={row['objective']:+.4f}",
              file=sys.stderr)
    print(f"recommended: {result['recommended']} "
          f"(band: {', '.join(result['recommended_band'])})", file=sys.stderr)
    return result["rows"], {"recommended": result["recommended"],
                            "recommended_band": result["recommended_band"]}


def cmd_bench_mtf(args) -> tuple:
    spacings = _list_flag(args.spacings, "--spacings")
    rows = []
    for region in (1, 2, 3) if args.region == 0 else (args.region,):
        sigma = optics.region_psf_sigma_um(region)
        for spacing in spacings:
            res = optics.prong_mtf(spacing, sigma)
            rows.append({"region": region, "spacing_um": spacing,
                         "psf_sigma_um": sigma, "mtf": res["mtf"],
                         "resolvable": res["resolvable"]})
    for row in rows:
        print(f"region {row['region']} spacing {row['spacing_um']:5.1f} um: "
              f"mtf={row['mtf']:.3f} "
              f"{'resolvable' if row['resolvable'] else 'not resolvable'}",
              file=sys.stderr)
    return rows, {}


def cmd_train_gas(args) -> tuple:
    times = _list_flag(args.integration, "--integration")
    experiments.check_integration_times(times, args.duration)
    data = experiments.make_gas_dataset(n_per_material=args.approaches,
                                        duration_s=args.duration,
                                        seed=args.seed)
    rows = []
    for t in times:
        last = experiments.gas_experiment(data, t, seed=args.seed)
        rows.append({"integration_s": t, "accuracy": last.accuracy,
                     "n_train": last.n_train, "n_test": last.n_test})
        print(f"integration {t:5.1f} s: accuracy {last.accuracy:.3f}",
              file=sys.stderr)
    if args.confusion_out:
        with open(args.confusion_out, "w") as fh:
            fh.write(experiments.confusion_csv(last.confusion, synth.GAS_MATERIALS))
        print(f"wrote confusion matrix (integration {times[-1]:g} s) to "
              f"{args.confusion_out}", file=sys.stderr)
    return rows, {"materials": list(synth.GAS_MATERIALS)}


def cmd_train_fusion(args) -> tuple:
    modalities = experiments.check_modalities(
        experiments.MODALITY_NAMES if args.modalities == "all"
        else (m.strip() for m in args.modalities.split(",")))
    windows = list(experiments.iter_fusion_windows(
        trials_per_class=args.trials_per_class, seed=args.seed))
    modes = (experiments.FINGER_DEPENDENT, experiments.FINGER_INDEPENDENT) \
        if args.mode == "both" else (f"finger_{args.mode}",)
    rows = []
    for mode in modes:
        last = experiments.fusion_experiment(windows, mode=mode,
                                             modalities=modalities,
                                             seed=args.seed)
        rows.append({
            "mode": mode, "modalities": "+".join(modalities),
            "action_accuracy": last.action_accuracy,
            "material_accuracy": last.material_accuracy,
            "lr": last.lr, "n_train": last.n_train, "n_test": last.n_test,
        })
        print(f"{mode}: action {last.action_accuracy:.3f}, "
              f"material {last.material_accuracy:.3f} (lr={last.lr})",
              file=sys.stderr)
    if args.confusion_out:
        from .core import ACTIONS, MATERIALS
        with open(args.confusion_out, "w") as fh:
            fh.write(experiments.confusion_csv(last.confusion_action, ACTIONS))
            fh.write(experiments.confusion_csv(last.confusion_material,
                                               MATERIALS))
        print(f"wrote confusion matrices to {args.confusion_out}",
              file=sys.stderr)
    return rows, {}


def cmd_analyze_liquid(args) -> tuple:
    log = read_log(args.log)
    taps = experiments.analyze_liquid(log, finger_id=args.finger)
    rows = [{"t_start_s": t.t_start_s, "peak_hz": t.peak_hz,
             "tau_s": t.tau_s, "predicted_fill": t.predicted_fill}
            for t in taps]
    for row in rows:
        print(f"tap @ {row['t_start_s']:.3f} s: peak {row['peak_hz']:.1f} Hz, "
              f"tau {row['tau_s'] * 1e3:.1f} ms -> {row['predicted_fill']}",
              file=sys.stderr)
    return rows, {}


def _parse_report(text: str):
    """A report as :func:`_render` writes it: JSON, or CSV whose ``# key=``
    lines hold JSON values, followed by the header and one line per row."""
    if not text.startswith("#"):
        return json.loads(text)
    lines = text.splitlines()
    fields = list(itertools.takewhile(lambda line: line.startswith("#"), lines))
    rep = {}
    for line in fields:
        key, sep, value = line[1:].lstrip().partition("=")
        if not sep:
            raise errors.ConfigError(f"a CSV report field is '# key=<JSON>', got {line!r}")
        rep[key] = json.loads(value)
    rep["rows"] = list(csv.DictReader(lines[len(fields):]))
    return rep


def cmd_report(args) -> None:
    loaded = []
    for path in args.reports:
        try:
            with open(path, encoding="utf-8") as fh:
                rep = _parse_report(fh.read())
            if not (isinstance(rep, dict) and isinstance(rep.get("rows", []), list)):
                raise errors.ConfigError("a report is a JSON object whose rows are a list")
            loaded.append((path, rep))
        except (OSError, ValueError, RecursionError, csv.Error) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
    if not loaded:
        raise errors.EmptyDataset("no readable reports")
    for path, rep in loaded:
        print(f"{path}: {rep.get('command')} v{rep.get('version')} "
              f"seed={rep.get('seed')} config={rep.get('config_hash')} "
              f"rows={len(rep.get('rows', []))}")


# --- parser -----------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="touchlab",
        description="Multimodal fingertip simulation and benchmarking workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="synthesize a scenario into a log file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", required=True, help="output log path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's seed")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="read a log; verify and summarize it")
    p.add_argument("log")
    p.add_argument("--out", default=None, help="re-emit the log to this path")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bench-latency", help="host vs on-device stage table")
    _add_common(p)
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--budget-us", type=float, default=link.DEFAULT_BUDGET_US)
    p.add_argument("--no-jitter", action="store_true")
    p.set_defaults(func=cmd_bench_latency)

    p = sub.add_parser("bench-reflex", help="event-to-action latency benchmark")
    _add_common(p)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--path", choices=("all", "device", "host", "legacy"),
                   default="all")
    p.set_defaults(func=cmd_bench_reflex)

    p = sub.add_parser("bench-optics", help="surface scattering sweep")
    _add_common(p)
    p.add_argument("--alpha-sweep", default=",".join(
        f"{a:g}" if isinstance(a, float) else a
        for a in optics.DEFAULT_SWEEP_ALPHAS))
    p.add_argument("--photons", type=int, default=1_000_000)
    p.set_defaults(func=cmd_bench_optics)

    p = sub.add_parser("bench-mtf", help="two-prong spatial resolution table")
    _add_common(p)
    p.add_argument("--region", type=int, choices=(0, 1, 2, 3), default=0,
                   help="fingertip region (0 = all)")
    p.add_argument("--spacings", default="3,5,6,7,9,12,22,30")
    p.set_defaults(func=cmd_bench_mtf)

    p = sub.add_parser("train-gas", help="gas material classification")
    _add_common(p)
    p.add_argument("--approaches", type=int, default=60)
    p.add_argument("--duration", type=float, default=experiments.GAS_APPROACH_S)
    p.add_argument("--integration", default="6,15,30,60,90")
    p.add_argument("--confusion-out", default=None,
                   help="write the final confusion matrix as CSV")
    p.set_defaults(func=cmd_train_gas)

    p = sub.add_parser("train-fusion", help="multimodal action/material "
                                            "classification")
    _add_common(p)
    p.add_argument("--trials-per-class", type=int, default=3)
    p.add_argument("--mode", choices=("both", "dependent", "independent"),
                   default="both")
    p.add_argument("--modalities", default="all",
                   help="comma list or 'all'")
    p.add_argument("--confusion-out", default=None,
                   help="write the last run's confusion matrices as CSV")
    p.set_defaults(func=cmd_train_fusion)

    p = sub.add_parser("analyze-liquid", help="fill level from tap ring-downs")
    _add_common(p)
    p.add_argument("log")
    p.add_argument("--finger", type=int, default=0)
    p.set_defaults(func=cmd_analyze_liquid)

    p = sub.add_parser("report", help="summarize saved JSON or CSV reports")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise errors.ConfigError(f"--seed must be >= 0, got {args.seed}")
        report = args.func(args)
        if report is not None:
            _emit(_report(args.command, vars(args), *report), args.out,
                  args.format)
        return EXIT_OK
    except (errors.TouchlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return EXIT_IO
        empty = isinstance(exc, (errors.EmptyDataset, errors.NoTapsFound))
        return EXIT_EMPTY if empty else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
