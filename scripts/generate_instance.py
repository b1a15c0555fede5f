"""Write a random benchmark-style instance file.

Every city but the first gets the same number of items with uncorrelated
integer profits and weights; the knapsack capacity is a chosen fraction
(out of 11) of the total item weight, mirroring the published TTP family.

Usage: python scripts/generate_instance.py --n 280 --items-per-city 1 \
           --capacity-index 5 --seed 1 --out a280ish.ttp
"""

import argparse
from pathlib import Path

import numpy as np

from bittp import ProblemInstance
from bittp.instance import write_instance


def make_instance(
    rng: np.random.Generator,
    n: int,
    items_per_city: int,
    capacity_index: int,
    renting_rate: float,
) -> ProblemInstance:
    span = 10 * n
    coords = np.unique(rng.integers(0, span, size=(4 * n, 2)), axis=0)
    rng.shuffle(coords)
    coords = coords[:n].astype(float)
    if coords.shape[0] < n:
        raise SystemExit("coordinate pool exhausted; try a larger --n span")
    m = items_per_city * (n - 1)
    weights = rng.integers(1, 1001, size=m).astype(float)
    return ProblemInstance(
        name=f"rand{n}_{items_per_city:02d}_unc_{capacity_index:02d}",
        coords=coords,
        profits=rng.integers(1, 1001, size=m).astype(float),
        weights=weights,
        item_city=np.tile(np.arange(1, n), items_per_city),
        capacity=float(np.ceil(weights.sum() * capacity_index / 11)),
        min_speed=0.1,
        max_speed=1.0,
        renting_rate=renting_rate,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=280)
    parser.add_argument("--items-per-city", type=int, default=1)
    parser.add_argument("--capacity-index", type=int, default=5, choices=range(1, 11))
    parser.add_argument("--renting-rate", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    inst = make_instance(
        np.random.default_rng(args.seed),
        args.n,
        args.items_per_city,
        args.capacity_index,
        args.renting_rate,
    )
    write_instance(inst, Path(args.out))
    print(f"wrote {args.out}: n={inst.n} m={inst.m} W={inst.capacity} R={inst.renting_rate}")


if __name__ == "__main__":
    main()
