"""Smelling the object before touching it.

Each approach run relaxes the gas record (oxidation resistance, humidity,
temperature, pressure) from the ambient baseline toward the material's
signature.  Per-channel means over the first seconds feed a small dense
network; accuracy grows with the integration time.
"""

from touchlab.experiments import gas_experiment, make_gas_dataset
from touchlab.synth import GAS_MATERIALS


def main():
    data = make_gas_dataset(n_per_material=60, duration_s=90.0, seed=0)
    print(f"dataset: {len(data.series)} approaches over "
          f"{', '.join(GAS_MATERIALS)}")

    print(f"\n{'integration [s]':>16}{'accuracy':>10}")
    for t in (3, 6, 15, 30, 60, 90):
        res = gas_experiment(data, float(t), seed=0)
        print(f"{t:>16}{res.accuracy:>10.3f}")

    res = gas_experiment(data, 90.0, seed=0)
    print("\nconfusion matrix at 90 s (rows = truth):")
    width = max(len(n) for n in GAS_MATERIALS)
    for name, row in zip(GAS_MATERIALS, res.confusion):
        print(f"  {name:<{width}} " + " ".join(f"{v:3d}" for v in row))


if __name__ == "__main__":
    main()
