"""Multimodal action/material classification ablation.

Windows of (visuotactile, audio, inertial, pressure) tensors are encoded
per modality, concatenated, and classified by a shared trunk with two
output heads.  Finger-dependent mode concatenates all four fingers per
sample; finger-independent treats each finger separately.  The planted
cross-finger pressure ratios only pay off in dependent mode.

Default size keeps this a ~1 minute demo; the acceptance suite runs the
full configuration (12 trials per class).
"""

import argparse
import time

from touchlab.experiments import (
    FINGER_DEPENDENT,
    FINGER_INDEPENDENT,
    MODALITY_NAMES,
    fusion_experiment,
    iter_fusion_windows,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials-per-class", type=int, default=4)
    args = parser.parse_args()

    t0 = time.time()
    windows = list(iter_fusion_windows(trials_per_class=args.trials_per_class,
                                       seed=0))
    print(f"synthesized {len(windows)} windows in {time.time() - t0:.0f} s")

    print(f"\n{'inputs':>22}{'mode':>13}{'action':>9}{'material':>10}")
    for mods in list((m,) for m in MODALITY_NAMES) + [MODALITY_NAMES]:
        res = fusion_experiment(windows, mode=FINGER_DEPENDENT, modalities=mods)
        label = "+".join(m[:4] for m in mods)
        print(f"{label:>22}{'dependent':>13}{res.action_accuracy:>9.3f}"
              f"{res.material_accuracy:>10.3f}")

    res_i = fusion_experiment(windows, mode=FINGER_INDEPENDENT,
                              modalities=("pressure",))
    print(f"{'pres':>22}{'independent':>13}{res_i.action_accuracy:>9.3f}"
          f"{res_i.material_accuracy:>10.3f}")
    print("\nthe cross-finger pressure code is only readable in dependent mode")


if __name__ == "__main__":
    main()
