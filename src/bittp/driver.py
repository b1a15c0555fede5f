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

import time as _time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .archive import Archive
from .evaluation import PackingPlan, Solution, Tour, TourContext, validate_solution
from .instance import ProblemInstance
from .packing import pack_tour
from .tour_search import (
    NeighborLists,
    average_pair_distance,
    construct_tour,
    two_opt_exploit,
)

NEG_INF = float("-inf")


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
    of -inf disables the 2-opt phase; ``flip_probability`` 0 disables
    bit flips.
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
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.packings_per_tour < 1:
            raise ValueError("packings_per_tour must be >= 1")
        if self.packing_attempts < 1:
            raise ValueError("packing_attempts must be >= 1")
        if self.reeval_divisor < 1:
            raise ValueError("reeval_divisor must be >= 1")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in [0, 1]")
        if (self.time_limit is None) == (self.iterations is None):
            raise ValueError("set exactly one of time_limit and iterations")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")


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


def bit_flip_exploit(
    inst: ProblemInstance,
    sol: Solution,
    flip_probability: float,
    rng: np.random.Generator,
    archive: Archive,
    *,
    alpha: float | None = None,
    ctx: TourContext | None = None,
) -> int:
    """Offer single-item flips of ``sol`` to the archive.

    Each item is flipped independently with ``flip_probability``; removals
    are always proposed, additions only when they fit.  Proposals are
    built from the original plan and re-priced via a suffix time delta.
    Returns the number of archive insertions.
    """
    if inst.m == 0 or flip_probability == 0.0:
        return 0
    if ctx is None:
        ctx = TourContext(inst, sol.tour)
    times = ctx.plan_times(sol.plan.selected)
    weights = inst.weights
    profits = inst.profits
    accepted = 0
    for item in range(inst.m):
        if rng.random() >= flip_probability:
            continue
        if sol.plan.selected[item]:
            plan = sol.plan.copy()
            plan.remove(item)
            profit = sol.profit - float(profits[item])
            t = ctx.flipped_time(times, item, add=False)
        else:
            if sol.plan.total_weight + weights[item] > inst.capacity:
                continue
            plan = sol.plan.copy()
            plan.add(item)
            profit = sol.profit + float(profits[item])
            t = ctx.flipped_time(times, item, add=True)
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

    def offer(sol: Solution) -> bool:
        if config.debug_checks:
            validate_solution(inst, sol, rel_tol=1e-6)
        return archive.add(sol.profit, sol.time, sol)

    start = _time.perf_counter()
    cycle = 0
    while True:
        if config.iterations is not None:
            if cycle >= config.iterations:
                break
        elif _time.perf_counter() - start >= config.time_limit:
            break

        # Exploration: one fresh tour, many randomized packings.
        tour = construct_tour(inst, rngs["tour"], neighbors=neighbors)
        ctx = TourContext(inst, tour)
        alphas = [
            sample_alpha(config.alpha_dist, rngs["alpha"]) for _ in range(config.packings_per_tour)
        ]
        plans = pack_tour(
            inst, ctx, alphas, config.packing_attempts, config.reeval_divisor, rngs["packing"]
        )
        for alpha, plan in zip(alphas, plans):
            offer(
                Solution(tour, plan, ctx.profit(plan.selected), ctx.travel_time(plan.selected), alpha)
            )

        # Exploitation: improve the best archived solution for a fresh alpha.
        alpha = sample_alpha(config.alpha_dist, rngs["alpha"])
        pivot = archive.best_for_alpha(alpha, inst.renting_rate).solution
        if config.two_opt_tolerance != NEG_INF:
            improved = two_opt_exploit(inst, pivot, alpha, config.two_opt_tolerance, ell)
            if improved is not None:
                offer(Solution.evaluated(inst, improved, pivot.plan, alpha))
        bit_flip_exploit(
            inst,
            pivot,
            config.flip_probability,
            rngs["bitflip"],
            archive,
            alpha=alpha,
            ctx=TourContext(inst, pivot.tour),
        )

        cycle += 1
        if on_cycle is not None:
            on_cycle(CycleStats(cycle, _time.perf_counter() - start, archive))
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
    under an equal budget.
    """
    if (time_limit is None) == (iterations is None):
        raise ValueError("set exactly one of time_limit and iterations")
    rng = np.random.default_rng(seed)
    archive = Archive()
    start = _time.perf_counter()
    cycle = 0
    while True:
        if iterations is not None:
            if cycle >= iterations:
                break
        elif _time.perf_counter() - start >= time_limit:
            break
        order = np.concatenate(([0], rng.permutation(np.arange(1, inst.n))))
        tour = Tour(order)
        ctx = TourContext(inst, tour)
        plan = PackingPlan.empty(inst)
        for item in rng.permutation(inst.m):
            if rng.random() < 0.5 and plan.can_add(item):
                plan.add(item)
        archive.add(
            ctx.profit(plan.selected),
            ctx.travel_time(plan.selected),
            Solution(tour, plan, ctx.profit(plan.selected), ctx.travel_time(plan.selected)),
        )
        cycle += 1
        if on_cycle is not None:
            on_cycle(CycleStats(cycle, _time.perf_counter() - start, archive))
    return archive
