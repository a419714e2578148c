"""How deep can the on-device network go before the reflex budget breaks?

Per-layer inference cost comes from the analytic MAC model; the hardware
engine buys a 10x speedup.  Without it the pipeline blows the 2463 us
budget at 10 layers; with it, 60-layer networks still fit.
"""

from touchlab import link


def main():
    for hw_accel in (False, True):
        sweep = link.mlp_depth_sweep(depths=range(0, 65, 4), hw_accel=hw_accel)
        label = "with hardware engine" if hw_accel else "software only"
        print(f"\n{label} (budget {sweep['budget_us']:.0f} us)")
        for row in sweep["rows"]:
            mark = "ok " if row["within_budget"] else "OVER"
            print(f"  depth {row['depth']:3d}: inference {row['inference_us']:7.1f} us, "
                  f"total {row['total_mean_us']:7.1f} us  {mark}")
        print(f"  first depth over budget: {sweep['first_exceeding_depth']}")

    fine = link.mlp_depth_sweep(depths=range(8, 12), hw_accel=False)
    print(f"\nexact crossover without acceleration: depth "
          f"{fine['first_exceeding_depth']}")


if __name__ == "__main__":
    main()
