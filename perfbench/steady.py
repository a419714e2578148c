#!/usr/bin/env python3
"""Steadiness check behind the bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10 [--workloads fusion,latency_gas]

Runs the benchmark once per seed on each workload, one run at a time, and
prints for every end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median, the statistic each metric's bound is held against,
next to the bound.  Also prints each workload's share of failed operations
and the wall time per run.  Exits 1 if a run fails, if any spread exceeds
its bound or if the share of failed operations differs between seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values, shares, walls = {}, set(), []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        fail_shares = sorted({f / a for f, a in shares})
        ok = ok and len(fail_shares) == 1
        print(f"{workload}: {len(walls)} runs, wall {statistics.median(walls):.1f} s "
              f"median / {max(walls):.1f} s max, failed share {fail_shares}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / statistics.median(vs)
            bound, flag = bounds[name], ""
            if spread > bound / 3:
                flag = " (above bound/3)"
                if spread > bound:
                    flag, ok = " (ABOVE BOUND)", False
            print(f"  {name:14s} median {statistics.median(vs):12.5g}  Q1 {q1:12.5g}  "
                  f"Q3 {q3:12.5g}  spread {spread:.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
