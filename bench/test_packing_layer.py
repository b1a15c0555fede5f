"""Packing-layer microbenchmark: one ``pack_tour`` call for 117 alphas per round.

Run from the root of a checkout (outside ``testpaths``, so the default
``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest bench/test_packing_layer.py --benchmark-only

The instances are the benchmark's: ``make_instance(default_rng(1), n, 1,
5, 5.0)`` from ``scripts/generate_instance.py``.  The tour is a
``construct_tour`` tour, built once per size outside the timed rounds; the
alphas are 117 uniform draws, and every round packs them with the solver's
defaults (12 attempts, divisor 41) from a fresh ``default_rng(round)``, so
every run times the same packings.
"""

import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bittp import TourContext, construct_tour  # noqa: E402
from bittp.packing import pack_tour  # noqa: E402
from generate_instance import make_instance  # noqa: E402

ALPHAS = 117
ATTEMPTS = 12
DIVISOR = 41


@functools.lru_cache(maxsize=None)
def _tour(n):
    inst = make_instance(np.random.default_rng(1), n, 1, 5, 5.0)
    return inst, TourContext(inst, construct_tour(inst, np.random.default_rng(0)))


@pytest.mark.parametrize("n, rounds", [(280, 20), (4461, 5)])
def test_pack_tour(benchmark, n, rounds):
    inst, ctx = _tour(n)
    alphas = np.random.default_rng(2).random(ALPHAS).tolist()
    seeds = itertools.count()

    def setup():
        return (inst, ctx, alphas, ATTEMPTS, DIVISOR, np.random.default_rng(next(seeds))), {}

    plans = benchmark.pedantic(pack_tour, setup=setup, rounds=rounds)
    assert len(plans) == ALPHAS
