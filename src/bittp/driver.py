"""The solver loop: weighted-sum decomposition with exploration and exploitation.

Each cycle constructs a fresh tour, builds many packing plans for it under
randomly drawn scalarization weights (exploration), then picks the best
archived solution for one more drawn weight and tries to improve it with
length-filtered 2-opt moves and probabilistic single-item flips
(exploitation).  Every candidate is offered to a shared non-dominated
archive, which is the result of the run.

Reproducibility: one master seed spawns four named sub-streams (tour,
alpha, packing, bit-flip) so that disabling one phase does not perturb
the draws of another.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .archive import Archive
from .evaluation import PackingPlan, Solution, Tour, TourContext, total_profit, travel_time
from .instance import ProblemInstance
from .packing import pack_tour
from .tour_search import (
    NeighborLists,
    average_pair_distance,
    construct_tour,
    two_opt_exploit,
)


class AlphaDistribution(str, Enum):
    """Distribution the per-problem scalarization weight is drawn from."""

    UNIFORM = "uniform"
    NORMAL = "normal"          # N(0.5, 0.2) resampled into [0, 1]
    BETA_RIGHT = "beta-right"  # Beta(3, 1.5), mass toward 1
    BETA_LEFT = "beta-left"    # Beta(1.5, 3), mass toward 0


def sample_alpha(dist: AlphaDistribution, rng: np.random.Generator) -> float:
    """Draw a scalarization weight in [0, 1] from ``dist``.

    Out-of-range normal draws are rejected and redrawn rather than
    clamped, preserving the distribution's shape near the boundaries.
    """
    dist = AlphaDistribution(dist)
    if dist is AlphaDistribution.UNIFORM:
        return float(rng.random())
    if dist is AlphaDistribution.NORMAL:
        while True:
            x = rng.normal(0.5, 0.2)
            if 0.0 <= x <= 1.0:
                return float(x)
    if dist is AlphaDistribution.BETA_RIGHT:
        return float(rng.beta(3.0, 1.5))
    return float(rng.beta(1.5, 3.0))


@dataclass(frozen=True)
class WsmConfig:
    """Run parameters.  Defaults are the averaged tuned configuration.

    Exactly one of ``time_limit`` (seconds) and ``iterations`` (cycle
    count, for reproducible runs) must be set.  A ``two_opt_tolerance``
    of -inf disables the 2-opt phase, and NaN is rejected;
    ``flip_probability`` 0 disables bit flips.  ``seed`` must be >= 0.
    """

    alpha_dist: AlphaDistribution = AlphaDistribution.UNIFORM
    packings_per_tour: int = 117
    packing_attempts: int = 12
    reeval_divisor: int = 41
    two_opt_tolerance: float = 0.001
    flip_probability: float = 0.22
    time_limit: float | None = None
    iterations: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.packings_per_tour < 1:
            raise ValueError("packings_per_tour must be >= 1")
        if self.packing_attempts < 1:
            raise ValueError("packing_attempts must be >= 1")
        if self.reeval_divisor < 1:
            raise ValueError("reeval_divisor must be >= 1")
        if math.isnan(self.two_opt_tolerance):
            raise ValueError("two_opt_tolerance must not be NaN")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in [0, 1]")
        if (self.time_limit is None) == (self.iterations is None):
            raise ValueError("set exactly one of time_limit and iterations")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class CycleStats:
    """Snapshot handed to the per-cycle callback of :func:`run`."""

    cycle: int
    elapsed: float
    archive: Archive


def _spawn_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("tour", "alpha", "packing", "bitflip")
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def _cycles(
    archive: Archive,
    iterations: int | None,
    time_limit: float | None,
    on_cycle: Callable[[CycleStats], None] | None,
) -> Iterator[None]:
    """Yield once per cycle until ``iterations`` cycles ran or ``time_limit``
    seconds passed, and hand ``on_cycle`` a snapshot after each cycle.  The
    clock starts at the first cycle, after the caller's set-up, and is read
    after each cycle, so a time limit always runs at least one."""
    start = _time.perf_counter()
    cycle = 0
    while iterations is None or cycle < iterations:
        yield
        cycle += 1
        if on_cycle is not None:
            on_cycle(CycleStats(cycle, _time.perf_counter() - start, archive))
        if time_limit is not None and _time.perf_counter() - start >= time_limit:
            return


def bit_flip_exploit(
    inst: ProblemInstance,
    sol: Solution,
    flip_probability: float,
    rng: np.random.Generator,
    archive: Archive,
    *,
    alpha: float | None = None,
) -> int:
    """Offer single-item flips of ``sol`` to the archive.

    Each item is flipped independently with ``flip_probability``; removals
    are always proposed, additions only when they fit
    (:meth:`PackingPlan.flipped`).  Proposals are built from the original
    plan and priced through one :class:`TourContext` of the pivot's tour:
    its :meth:`~TourContext.plan_times` once, then a suffix time delta per
    flip.  Returns the number of archive insertions.
    """
    if inst.m == 0 or flip_probability == 0.0:
        return 0
    ctx = TourContext(inst, sol.tour)
    times = ctx.plan_times(sol.plan.selected)
    accepted = 0
    for item in np.flatnonzero(rng.random(inst.m) < flip_probability).tolist():
        plan = sol.plan.flipped(item)
        if plan is None:
            continue
        profit = total_profit(inst, plan)
        t = ctx.flipped_time(times, item, add=item in plan)
        if archive.add(profit, t, Solution(sol.tour, plan, profit, t, alpha)):
            accepted += 1
    return accepted


def run(
    inst: ProblemInstance,
    config: WsmConfig,
    on_cycle: Callable[[CycleStats], None] | None = None,
) -> Archive:
    """Run the full loop until the configured budget is exhausted.

    Deterministic given (instance, seed) in ``iterations`` mode.  The
    optional ``on_cycle`` callback observes the live archive after each
    cycle (e.g. to record a hypervolume trace).
    """
    rngs = _spawn_streams(config.seed)
    archive = Archive()
    neighbors = NeighborLists.build(inst)
    ell = average_pair_distance(inst)

    for _ in _cycles(archive, config.iterations, config.time_limit, on_cycle):
        # Exploration: one fresh tour, many randomized packings.
        tour = construct_tour(inst, rngs["tour"], neighbors)
        ctx = TourContext(inst, tour)
        alphas = [
            sample_alpha(config.alpha_dist, rngs["alpha"]) for _ in range(config.packings_per_tour)
        ]
        plans = pack_tour(
            inst, ctx, alphas, config.packing_attempts, config.reeval_divisor, rngs["packing"]
        )
        for alpha, plan in zip(alphas, plans):
            profit, t = total_profit(inst, plan), ctx.travel_time(plan.selected)
            archive.add(profit, t, Solution(tour, plan, profit, t, alpha))

        # Exploitation: improve the best archived solution for a fresh alpha.
        alpha = sample_alpha(config.alpha_dist, rngs["alpha"])
        pivot = archive.best_for_alpha(alpha, inst.renting_rate).solution
        improved = two_opt_exploit(inst, pivot, alpha, config.two_opt_tolerance, ell)
        if improved is not None:
            sol = Solution.evaluated(inst, improved, pivot.plan, alpha)
            archive.add(sol.profit, sol.time, sol)
        bit_flip_exploit(inst, pivot, config.flip_probability, rngs["bitflip"], archive, alpha=alpha)
    return archive


def random_search(
    inst: ProblemInstance,
    *,
    seed: int = 0,
    time_limit: float | None = None,
    iterations: int | None = None,
    on_cycle: Callable[[CycleStats], None] | None = None,
) -> Archive:
    """Uniformly random tours and random feasible plans, same archive rules.

    A control for benchmarking: any guided search should clearly beat this
    under an equal budget.  Each item, in random order, is chosen with
    probability 1/2 if it fits on the running weight of the chosen ones.
    """
    if (time_limit is None) == (iterations is None):
        raise ValueError("set exactly one of time_limit and iterations")
    rng = np.random.default_rng(seed)
    archive = Archive()
    weights = inst.weights.tolist()
    for _ in _cycles(archive, iterations, time_limit, on_cycle):
        tour = Tour(np.concatenate(([0], rng.permutation(np.arange(1, inst.n)))))
        chosen = []
        load = 0.0
        for item in rng.permutation(inst.m).tolist():
            if rng.random() < 0.5 and load + weights[item] <= inst.capacity:
                chosen.append(item)
                load += weights[item]
        plan = PackingPlan.fitted(inst, chosen)
        profit, t = total_profit(inst, plan), travel_time(inst, tour, plan)
        archive.add(profit, t, Solution(tour, plan, profit, t))
    return archive
