"""Two-prong spatial resolution: which feature sizes stay resolvable?

Each fingertip region has a Gaussian point-spread function calibrated to
its simulated resolving limit (6 / 8 / 22 um at MTF 0.5).  Two blurred
prongs are resolvable when the modulation transfer (max - valley) /
(max + valley) of the line profile stays at or above 0.5.
"""

from touchlab.optics import REGION_MTF_LIMIT_UM, prong_mtf, region_psf_sigma_um


def main():
    spacings = (3, 5, 6, 7, 8, 10, 14, 20, 22, 26, 30)

    print(f"{'spacing [um]':>13}" + "".join(f"{f'region {r}':>14}" for r in (1, 2, 3)))
    for s in spacings:
        cells = []
        for region in (1, 2, 3):
            res = prong_mtf(float(s), region_psf_sigma_um(region))
            cells.append(f"{res['mtf']:.3f}{'*' if res['resolvable'] else ' '}")
        print(f"{s:>13}" + "".join(f"{c:>14}" for c in cells))

    print("\n* = resolvable (MTF >= 0.5)")
    for region, limit in REGION_MTF_LIMIT_UM.items():
        sigma = region_psf_sigma_um(region)
        print(f"region {region}: PSF sigma {sigma:.2f} um, "
              f"calibrated so MTF({limit:g} um) = 0.5")


if __name__ == "__main__":
    main()
