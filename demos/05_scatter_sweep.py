"""Surface scattering sweep: from machine polish to Lambertian.

The Monte-Carlo tracer renders the dome interior under eight ring LEDs for
each scatter model.  Low scatter concentrates light into glints (huge
contrast, terrible background); Lambertian scattering turns the dome into
an integrating sphere (flat background, washed-out indentations).  The
combined objective lands the recommendation between 20 and 25 degrees.

Full photon budget takes ~25 s; pass a smaller --photons for a quick look.
"""

import argparse

from touchlab.optics import scatter_sweep


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--photons", type=int, default=1_000_000)
    args = parser.parse_args()

    res = scatter_sweep(photons=args.photons)

    if args.photons < 1_000_000:
        print(f"note: objective weights are calibrated at 1e6 photons; "
              f"{args.photons} photons shifts the columns and can move the "
              f"recommendation\n")

    print(f"{'alpha':>11}{'std/mean':>10}{'range/mean':>12}"
          f"{'cnr on-axis':>12}{'cnr mid':>9}{'cnr far':>9}{'objective':>11}")
    for row in res["rows"]:
        print(f"{row['alpha']:>11}{row['std_over_mean']:>10.3f}"
              f"{row['range_over_mean']:>12.3f}{row['cnr_on_axis']:>12.2f}"
              f"{row['cnr_mid']:>9.2f}{row['cnr_far']:>9.2f}"
              f"{row['objective']:>11.4f}")

    print(f"\nrecommended scatter: {res['recommended']} "
          f"(band: {', '.join(res['recommended_band'])})")


if __name__ == "__main__":
    main()
