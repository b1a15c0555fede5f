"""Tour-layer microbenchmark: one ``construct_tour`` call per round.

Run from the root of a checkout (outside ``testpaths``, so the default
``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest bench/test_tour_layer.py --benchmark-only

The instances are the benchmark's: ``make_instance(default_rng(1), n, 1,
5, 5.0)`` from ``scripts/generate_instance.py`` at n=280 and n=4461.
Each round draws its start city from a fresh ``default_rng(round)``, so
every run times the same tours.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bittp import NeighborLists, construct_tour  # noqa: E402
from generate_instance import make_instance  # noqa: E402


@pytest.mark.parametrize("n, rounds", [(280, 20), (4461, 3)])
def test_construct_tour(benchmark, n, rounds):
    inst = make_instance(np.random.default_rng(1), n, 1, 5, 5.0)
    neighbors = NeighborLists.build(inst)
    seeds = itertools.count()

    def setup():
        return (inst, np.random.default_rng(next(seeds))), {"neighbors": neighbors}

    tour = benchmark.pedantic(construct_tour, setup=setup, rounds=rounds)
    assert sorted(tour.order.tolist()) == list(range(n))
