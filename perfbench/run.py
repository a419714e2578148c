#!/usr/bin/env python3
"""touchlab benchmark: one seeded, closed-loop workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload fusion --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the public functions of
every touchlab module in spans, reports the per-layer metrics and writes
the spans to ``.perfbench/trace-<workload>-<seed>.jsonl.gz``.  A failed output
check prints ``"correct": false`` and exits 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("fusion", "optics_sweep", "record_replay", "latency_gas")

#: fresh interpreters started to measure set-up time, before and after the
#: timed rounds: a shared virtual machine's speed can wander over seconds,
#: and probes at both ends of a run sample it at two moments rather than one
SETUP_PROBES = (2, 2)
PROBE_TIMEOUT_S = 60


def import_touchlab() -> float:
    """Import touchlab from this checkout's ``src/``; returns the seconds
    spent importing ``touchlab.cli``, which pulls in every module."""
    package = SRC / "touchlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no touchlab sources at {package}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import touchlab.cli
    elapsed = time.perf_counter() - t0
    if Path(touchlab.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported touchlab from {touchlab.cli.__file__}")
    return elapsed


def setup_probes(args, count: int) -> tuple[list, list]:
    """Start ``count`` fresh interpreters, one after the other, each of
    which imports touchlab, builds the workload's inputs and reports ready.
    Returns the seconds from start to ready and the import times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    ready, imports = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready.append(time.perf_counter() - t0)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise SystemExit(f"error: set-up probe exited {proc.returncode}")
        imports.append(json.loads(line)["import_s"])
    return ready, imports


def thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not args.setup_probe:
        setup_s, import_s = setup_probes(args, SETUP_PROBES[0])

    t_import = import_touchlab()
    import layers
    import spans
    import workloads
    from touchlab import nn

    rec = spans.Recorder()
    if args.trace:
        import touchlab
        modules = [touchlab] + [m for name, m in sorted(sys.modules.items())
                                if name.startswith("touchlab.")]
        spans.install(rec, modules, layers.TAGGERS)
        nn.AdamState.step = rec.wrap("nn.AdamState.step", nn.AdamState.step)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), rec)
        if args.setup_probe:
            print(json.dumps({"import_s": t_import}), flush=True)
            return 0
        correct = True
        try:
            wl.run(time.perf_counter(), args.seconds)
        except workloads.CheckFailed as exc:
            print(f"check failed on {args.workload}: {exc}", file=sys.stderr)
            correct = False
        if correct:
            ready, imports = setup_probes(args, SETUP_PROBES[1])
            setup_s += ready
            import_s += imports
        if args.trace and correct:
            values = layers.per_layer(rec, import_s)
            if isinstance(wl, workloads.RecordReplay):
                with rec.span("bench.alloc_probe"):
                    alloc = wl.alloc_ratios()
                values["recordlog.write_peak_alloc_x"] = alloc["write"]
                values["recordlog.read_peak_alloc_x"] = alloc["read"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed}
    if not correct:
        print(json.dumps({**result, "metrics": {}}))
        return 1
    rates = wl.rates()
    if args.trace:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        rec.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "nproc": os.cpu_count(),
                              "threads": thread_count(), "traced_rates": rates,
                              **result})
        print(f"traced step rates {rates}; spans in {trace_path}", file=sys.stderr)
    else:
        values = {"setup_s": statistics.median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  **rates}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB"),
                                      ("step1_per_s", "1/s"), ("step2_per_s", "1/s"))}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
