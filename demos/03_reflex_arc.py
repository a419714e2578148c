"""Reflex-arc benchmark: event-to-action latency across processing paths.

A contact lands at a random phase of the sampling period, is detected on
the next sample, and is routed through one of three paths: local
processing on the fingertip, round trip through the host, or the legacy
60 fps vision-only pipeline.  Matched trials share random draws, so the
on-device path wins in every single trial, not just on average.
"""

import numpy as np

from touchlab.reflex import reflex_benchmark


def main():
    results = {name: reflex_benchmark(name, n_trials=4000, seed=0)
               for name in ("device", "host", "legacy")}

    print(f"{'path':<8}{'mean [ms]':>10}{'std [us]':>10}{'p99 [ms]':>10}")
    for name, res in results.items():
        s = res.stats
        print(f"{name:<8}{s['mean'] / 1000:>10.3f}{s['std']:>10.1f}"
              f"{s['p99'] / 1000:>10.3f}")

    dom = np.mean(results["device"].latencies_us < results["host"].latencies_us)
    print(f"\nmatched-trial dominance (device < host): {dom:.1%}")
    speedup = results["host"].stats["mean"] / results["device"].stats["mean"]
    print(f"host -> device speedup: {speedup:.2f}x, "
          f"jitter ratio: {results['host'].stats['std'] / results['device'].stats['std']:.2f}x")


if __name__ == "__main__":
    main()
