"""Host vs on-device latency decomposition.

The six-stage pipeline (acquisition, data transfer, sub-sampling,
inference, action transfer, action) is simulated on a virtual clock with
per-stage log-normal jitter.  With a zero-inference workload the fixed
stages sum to ~3146 us through the host and ~683 us on-device; the
2463 us event-to-action budget separates the two designs.
"""

from touchlab import link


def main():
    for name, path in (("host", link.HOST_PATH), ("device", link.DEVICE_PATH)):
        stats = link.run_pipeline(path, link.Workload(), n_runs=20_000, seed=0)
        print(f"\n{name} path ({stats.n_runs} runs)")
        print(f"  {'stage':<16}{'mean':>9}{'std':>9}{'p95':>9}{'p99':>9}")
        for stage in (*link.STAGE_NAMES, "total"):
            s = stats.stats[stage]
            print(f"  {stage:<16}{s['mean']:9.1f}{s['std']:9.1f}"
                  f"{s['p95']:9.1f}{s['p99']:9.1f}")
        check = link.latency_budget_check(stats)
        print(f"  budget {check.budget_us:.0f} us -> "
              f"{'PASS' if check.passed else 'FAIL'} "
              f"(margin {check.margin_us:+.0f} us)")

    # Adding a model: a 500 us inference fits on-device with room to spare.
    stats = link.run_pipeline(link.DEVICE_PATH, link.Workload(inference_us=500.0),
                              n_runs=20_000, seed=0)
    check = link.latency_budget_check(stats)
    print(f"\ndevice + 500 us inference: total {check.total_us:.0f} us -> "
          f"{'PASS' if check.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
