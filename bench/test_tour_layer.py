"""Tour-layer microbenchmark: one ``construct_tour`` call per round.

Run from the root of a checkout (outside ``testpaths``, so the default
``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest bench/test_tour_layer.py --benchmark-only

The instances are the benchmark's: ``make_instance(default_rng(1), n, 1,
5, 5.0)`` from ``scripts/generate_instance.py`` at n=280 and n=4461, and
n=33810, the size of the pla33810 competition instances, timed for one
round.  Each round draws its start city from a fresh ``default_rng(round)``,
so every run times the same tours.

Every case records, from one more untimed call, the descent's pricing
passes (``_Descent.first_move`` calls, one numpy pass over a block of
cities each) and moves in ``extra_info``.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bittp import NeighborLists, construct_tour, tour_search  # noqa: E402
from generate_instance import make_instance  # noqa: E402


def _record_counts(benchmark, monkeypatch, inst, neighbors, rng):
    """Count the pricing passes and the moves of one call."""
    counts = {"pricing_passes": 0, "moves": 0}
    first_move, apply = tour_search._Descent.first_move, tour_search._Descent.apply

    def counted_first_move(self, cities):
        counts["pricing_passes"] += 1
        return first_move(self, cities)

    def counted_apply(self, move):
        counts["moves"] += 1
        return apply(self, move)

    with monkeypatch.context() as patch:
        patch.setattr(tour_search._Descent, "first_move", counted_first_move)
        patch.setattr(tour_search._Descent, "apply", counted_apply)
        construct_tour(inst, rng, neighbors)
    benchmark.extra_info.update(counts)


@pytest.mark.parametrize("n, rounds", [(280, 20), (4461, 3), (33810, 1)])
def test_construct_tour(benchmark, monkeypatch, n, rounds):
    inst = make_instance(np.random.default_rng(1), n, 1, 5, 5.0)
    neighbors = NeighborLists.build(inst)
    seeds = itertools.count()

    def setup():
        return (inst, np.random.default_rng(next(seeds))), {"neighbors": neighbors}

    tour = benchmark.pedantic(construct_tour, setup=setup, rounds=rounds)
    assert sorted(tour.order.tolist()) == list(range(n))
    _record_counts(benchmark, monkeypatch, inst, neighbors, np.random.default_rng(0))
