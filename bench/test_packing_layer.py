"""Packing-layer microbenchmark: one ``pack_tour`` call for 117 alphas per round.

Run from the root of a checkout (outside ``testpaths``, so the default
``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest bench/test_packing_layer.py --benchmark-only

The instances are the benchmark's: ``make_instance(default_rng(1), n, 1,
5, 5.0)`` from ``scripts/generate_instance.py``, and with ten items per
city (m = 10(n - 1), the shape of the competition instances with the most
items) at n=280 and n=4461.  The tour is a
``construct_tour`` tour, built once per size outside the timed rounds; the
alphas are 117 uniform draws, and every round packs them with the solver's
defaults (12 attempts, divisor 41) from a fresh ``default_rng(round)``, so
every run times the same packings.  n=33810, m=33809 is the size of the
pla33810 competition instances; its tour takes ~10 s to build, so it is
timed for one round.

The solver cases pack what the first cycle of ``run(inst,
WsmConfig(iterations=1, seed=s))`` packs, on the ``n4461-tour`` workload's
instance of the same seed (``make_instance(default_rng(s), 4461, 1, 5,
5.0)``): its tour, its alphas and its packing stream, restored every round.
The solver's tours leave lanes with small re-check periods deep into their
item order, so a packing makes several times the steps of the constructed
tour's.

Every case records, from one more untimed call, the rows priced (travel
times computed) and the lockstep steps in ``extra_info``.
"""

import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bittp import NeighborLists, TourContext, WsmConfig, construct_tour, driver, packing, run  # noqa: E402
from bittp.packing import pack_tour  # noqa: E402
from generate_instance import make_instance  # noqa: E402

ALPHAS = 117
ATTEMPTS = 12
DIVISOR = 41


@functools.lru_cache(maxsize=None)
def _tour(n, per_city):
    inst = make_instance(np.random.default_rng(1), n, per_city, 5, 5.0)
    tour = construct_tour(inst, np.random.default_rng(0), NeighborLists.build(inst))
    return inst, TourContext(inst, tour)


class _FirstPacking(Exception):
    pass


@functools.lru_cache(maxsize=None)
def _solver_tour(seed):
    """The instance, tour context, alphas and packing-stream state of the
    first ``pack_tour`` call of a one-cycle solve."""
    inst = make_instance(np.random.default_rng(seed), 4461, 1, 5, 5.0)
    seen = {}

    def capture(inst, ctx, alphas, attempts, divisor, rng):
        seen.update(ctx=ctx, alphas=list(alphas), state=rng.bit_generator.state)
        raise _FirstPacking

    saved, driver.pack_tour = driver.pack_tour, capture
    try:
        run(inst, WsmConfig(iterations=1, seed=seed))
    except _FirstPacking:
        pass
    finally:
        driver.pack_tour = saved
    return inst, seen["ctx"], seen["alphas"], seen["state"]


def _rng(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def _record_counts(benchmark, monkeypatch, inst, ctx, alphas, rng):
    """Count the rows priced and the lockstep steps of one call."""
    counts = {"priced_rows": 0, "steps": 0}
    greedy = packing._greedy_picks

    def counted_greedy(*args):
        counts["steps"] += 1
        return greedy(*args)

    class CountedContext(TourContext):
        __slots__ = ()

        def row_times(self, weight_by_pos):
            counts["priced_rows"] += weight_by_pos.shape[0]
            return super().row_times(weight_by_pos)

    with monkeypatch.context() as patch:
        patch.setattr(packing, "_greedy_picks", counted_greedy)
        pack_tour(inst, CountedContext(inst, ctx.tour), alphas, ATTEMPTS, DIVISOR, rng)
    benchmark.extra_info.update(counts)


@pytest.mark.parametrize(
    "n, per_city, rounds", [(280, 1, 20), (4461, 1, 5), (33810, 1, 1), (280, 10, 5), (4461, 10, 1)]
)
def test_pack_tour(benchmark, monkeypatch, n, per_city, rounds):
    inst, ctx = _tour(n, per_city)
    alphas = np.random.default_rng(2).random(ALPHAS).tolist()
    seeds = itertools.count()

    def setup():
        return (inst, ctx, alphas, ATTEMPTS, DIVISOR, np.random.default_rng(next(seeds))), {}

    plans = benchmark.pedantic(pack_tour, setup=setup, rounds=rounds)
    assert len(plans) == ALPHAS
    _record_counts(benchmark, monkeypatch, inst, ctx, alphas, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [1, 4])
def test_pack_tour_solver_tour(benchmark, monkeypatch, seed):
    inst, ctx, alphas, state = _solver_tour(seed)

    def setup():
        return (inst, ctx, alphas, ATTEMPTS, DIVISOR, _rng(state)), {}

    plans = benchmark.pedantic(pack_tour, setup=setup, rounds=5)
    assert len(plans) == len(alphas)
    _record_counts(benchmark, monkeypatch, inst, ctx, alphas, _rng(state))
