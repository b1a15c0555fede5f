"""Randomized score-guided packing for a fixed tour and scalarization weights.

A packing is the best of ``attempts`` randomized greedy constructions
(PackIterative, Faulkner et al., GECCO 2015).  Each attempt draws three
exponents, normalizes them to sum to 1, and scores every item by
profit^a / (weight^b * carry_distance^c), where the carry distance is how
far along the tour the item would be hauled.  Items are then greedily
added in score order, with the scalarized objective re-checked every
``phi`` analyzed items; a failed check rolls back to the last committed
plan and halves ``phi``.  The best committed plan across attempts is
returned, never worse than the empty plan.

All attempts of all packings for one tour run together (:func:`pack_tour`).
Each attempt is a lane, and the lanes advance rank by rank in lockstep:
one step adds the next item of every lane where it fits, and the lanes due
a re-check are priced in one row-wise pass.  Whole packings are in flight
at a time, as many as ``LANE_CELLS`` allows, and the next packing starts
as soon as the lanes of one have finished.  The plans, and the state the
random generator is left in, are identical to running the attempts one
after another: the exponents are drawn in the same order, every lane does
the same floating-point operations in the same order, and ties between
attempts go to the earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluation import PackingPlan, Tour, TourContext
from .instance import ProblemInstance

REEVAL_EPSILON = 1e-5

# Cells of max(n, m) held by the lanes in flight.  A cell costs 5 bytes, an
# int32 item and a boolean pick per rank, so 2**20 cells keep the lanes near
# 5 MB.  A re-check prices its lanes in chunks of CHUNK_CELLS cells: each
# float64 temporary stays near 128 KB, and a chunk scans picks only up to
# the furthest rank among its lanes.  Of 2**12 to 2**16, 2**14 packed
# fastest at n=280 and at n=4461.
LANE_CELLS = 1 << 20
CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class ScoredItems:
    """Per-item scores, the descending-score item order, and carry distances."""

    scores: np.ndarray
    order: np.ndarray
    carry_distance: np.ndarray


def carry_distances(ctx: TourContext) -> np.ndarray:
    """Distance each item is carried: from its pickup position to the tour's end,
    including the closing leg back to the start city."""
    suffix = np.cumsum(ctx.leg[::-1])[::-1]
    return suffix[ctx.item_pos]


def _score_rows(inst: ProblemInstance, dist: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Item scores under each row (a, b, c) of ``exponents``, normalized to sum to 1."""
    total = exponents[:, 0] + exponents[:, 1] + exponents[:, 2]
    a, b, c = (exponents[:, j, None] / total[:, None] for j in range(3))
    return inst.profits**a / (inst.weights**b * dist**c)


def _descending(scores: np.ndarray) -> np.ndarray:
    """Item order by descending score in each row, ties to the lower index.

    Rows are sorted with the unstable default kind, which is several times
    faster; rows holding equal scores (or NaN) are sorted again stably.
    """
    keys = -scores
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1) | np.isnan(ranked).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    return order


def score_items(
    inst: ProblemInstance,
    tour: Tour,
    a: float,
    b: float,
    c: float,
    *,
    ctx: TourContext | None = None,
) -> ScoredItems:
    """Score items with exponents (a, b, c), normalized to sum to 1.

    Ties in score break toward the lower item index, so the ordering is
    deterministic.  Scale-invariant: triples that are positive multiples
    of each other produce identical scores.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("score exponents must be non-negative")
    if a + b + c == 0:
        raise ValueError("score exponents are all zero")
    if ctx is None:
        ctx = TourContext(inst, tour)
    dist = carry_distances(ctx)
    scores = _score_rows(inst, dist, np.array([[a, b, c]], dtype=np.float64))
    return ScoredItems(scores[0], _descending(scores)[0], dist)


def reeval_period(m: int, divisor: int, alpha: float) -> int:
    """Number of items analyzed between objective re-evaluations.

    ceil(m / divisor * alpha + eps); the epsilon keeps the period at 1
    when alpha is 0.
    """
    return math.ceil(m / divisor * alpha + REEVAL_EPSILON)


def randomized_packing(
    inst: ProblemInstance,
    tour: Tour,
    attempts: int,
    alpha: float,
    divisor: int,
    rng: np.random.Generator,
    *,
    ctx: TourContext | None = None,
) -> PackingPlan:
    """Best plan over ``attempts`` randomized greedy constructions for ``tour``.

    The one-alpha case of :func:`pack_tour`.  Each attempt consumes three
    uniform draws from ``rng`` (the score exponents), so results for a
    given rng state are reproducible and the best objective is
    non-decreasing in ``attempts``.
    """
    if ctx is None:
        ctx = TourContext(inst, tour)
    return pack_tour(inst, ctx, [alpha], attempts, divisor, rng)[0]


def pack_tour(
    inst: ProblemInstance,
    ctx: TourContext,
    alphas: Sequence[float],
    attempts: int,
    divisor: int,
    rng: np.random.Generator,
) -> list[PackingPlan]:
    """One packing per weight in ``alphas``, each the best of ``attempts``
    randomized greedy constructions on the tour of ``ctx``.

    Packings draw their exponents from ``rng`` in ``alphas`` order, three
    uniform draws per attempt (redrawn while all three are zero), so the
    plans and the final ``rng`` state equal those of one
    :func:`randomized_packing` call per weight.

    Every attempt is a lane.  The lanes of whole packings share the rows of
    two ``(rows, m)`` arrays, sized by ``LANE_CELLS``: the item at each rank
    and whether it is picked.  As soon as ``attempts`` rows are free, the
    next packing takes them.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha {alpha} outside [0, 1]")
    n, m = inst.n, inst.m
    weights, profits, item_pos = inst.weights, inst.profits, ctx.item_pos
    capacity, rent = inst.capacity, inst.renting_rate
    dist = carry_distances(ctx)
    empty_time = ctx.time_from_positions(np.zeros(n))

    packings_in_flight = min(len(alphas), max(1, LANE_CELLS // (attempts * max(n, m))))
    rows = packings_in_flight * attempts
    chunk = max(1, CHUNK_CELLS // max(n, m))
    order = np.empty((rows, m), dtype=np.int32)
    picked = np.zeros((rows, m), dtype=bool)
    order_flat, picked_flat = order.ravel(), picked.ravel()
    free = list(range(rows))

    empty_f = [alpha * 0.0 - (1.0 - alpha) * rent * empty_time for alpha in alphas]
    best_f = list(empty_f)
    best_attempt = [-1] * len(alphas)
    best_items = [np.zeros(0, dtype=np.int32)] * len(alphas)
    s = _Lanes()
    admitted = 0
    while True:
        while admitted < len(alphas) and len(free) >= attempts:
            p, alpha = admitted, alphas[admitted]
            admitted += 1
            new = np.array(free[-attempts:])
            del free[-attempts:]
            order[new] = _descending(_score_rows(inst, dist, _draw_exponents(rng, attempts)))
            picked[new] = False
            s.admit(new, m, p, alpha, (1.0 - alpha) * rent, reeval_period(m, divisor, alpha), empty_f[p])

        done = (s.rank > m) | (s.phi < 1)
        if done.any():
            finished = zip(
                s.row[done].tolist(),
                s.packing[done].tolist(),
                s.attempt[done].tolist(),
                s.c_f[done].tolist(),
                s.c_picks[done].tolist(),
            )
            for row, p, j, f, k in finished:
                # The sequential rule keeps the first attempt of the highest objective.
                if f > best_f[p] or (f == best_f[p] and j < best_attempt[p]):
                    best_f[p], best_attempt[p] = f, j
                    best_items[p] = order[row, :k][picked[row, :k]]
                free.append(row)
            s.keep(~done)
        if not s.row.size:
            if admitted == len(alphas):
                break
            continue

        # Analyze the item at each lane's rank; pick it where it fits.
        cell = s.cell0 + s.rank
        items = order_flat[cell]
        new_weight = s.weight + weights[items]
        fit = new_weight <= capacity
        np.copyto(s.weight, new_weight, where=fit)
        s.profit += np.where(fit, profits[items], 0.0)
        picked_flat[cell] = fit
        s.pending |= fit

        due = np.flatnonzero(s.pending & (s.rank % s.phi == 0))
        if due.size:
            times = []
            for lanes in np.split(due, range(chunk, due.size, chunk)):
                wpos = _pickup_weights(inst, item_pos, order, picked, s.row[lanes], s.rank[lanes].max())
                times.append(ctx.row_times(wpos))
            f = s.alpha[due] * s.profit[due] - s.rent_coef[due] * np.concatenate(times)
            better = f > s.c_f[due]
            up = due[better]
            s.c_f[up] = f[better]
            s.c_picks[up] = s.rank[up]
            s.c_weight[up] = s.weight[up]
            s.c_profit[up] = s.profit[up]
            back = due[~better]
            if back.size:
                # Roll back to the committed plan: drop the picks past it.
                s.weight[back] = s.c_weight[back]
                s.profit[back] = s.c_profit[back]
                s.rank[back] = np.maximum(s.c_picks[back], 1)
                s.phi[back] //= 2
                picked[s.row[back]] &= np.arange(m) < s.c_picks[back, None]
            s.pending[due] = False
        s.rank += 1

    plans = []
    for items in best_items:
        selected = np.zeros(m, dtype=bool)
        selected[items] = True
        plans.append(PackingPlan(inst, selected))
    return plans


def _draw_exponents(rng: np.random.Generator, attempts: int) -> np.ndarray:
    """Three uniform draws per attempt, redrawn while all three are zero."""
    out = np.empty((attempts, 3))
    for i in range(attempts):
        draws = rng.random(3)
        while draws.sum() == 0.0:
            draws = rng.random(3)
        out[i] = draws
    return out


def _pickup_weights(
    inst: ProblemInstance,
    item_pos: np.ndarray,
    order: np.ndarray,
    picked: np.ndarray,
    rows: np.ndarray,
    ranks: int,
) -> np.ndarray:
    """Weight picked up at each tour position by the picks of ``rows``, all
    within their first ``ranks`` ranks.

    The weights are added to zeros in rank order (``np.bincount`` adds in
    input order), the order in which one greedy attempt adds them, so each
    row equals that attempt's pickup weights bit for bit.
    """
    lane, rank = np.nonzero(picked[rows, :ranks])
    items = order[rows[lane], rank]
    flat = np.bincount(
        lane * inst.n + item_pos[items], weights=inst.weights[items], minlength=rows.size * inst.n
    )
    return flat.reshape(rows.size, inst.n)


class _Lanes:
    """State of the lanes in flight, one array per field.

    ``row`` is a lane's row in the ``(rows, m)`` arrays and ``cell0`` the
    flat offset of that row, less one for the 1-based ``rank`` of the next
    item to analyze.  The ``c_`` fields hold the committed plan: the picks
    of the first ``c_picks`` ranks are final, and a rollback resumes after
    rank ``max(c_picks, 1)``.
    """

    __slots__ = (
        "row", "cell0", "packing", "attempt", "alpha", "rent_coef",
        "rank", "phi", "weight", "profit", "pending",
        "c_picks", "c_weight", "c_profit", "c_f",
    )

    def __init__(self) -> None:
        none = np.zeros(0, dtype=np.int64)
        fields = self._fresh(none, m=0, packing=0, alpha=0.0, rent_coef=0.0, phi=1, empty_f=0.0)
        for name, value in fields.items():
            setattr(self, name, value)

    @staticmethod
    def _fresh(
        rows: np.ndarray, m: int, packing: int, alpha: float, rent_coef: float, phi: int, empty_f: float
    ) -> dict[str, np.ndarray]:
        k = rows.size
        return {
            "row": rows, "cell0": rows * m - 1,
            "packing": np.full(k, packing), "attempt": np.arange(k),
            "alpha": np.full(k, alpha), "rent_coef": np.full(k, rent_coef),
            "rank": np.ones(k, dtype=np.int64), "phi": np.full(k, phi),
            "weight": np.zeros(k), "profit": np.zeros(k), "pending": np.zeros(k, dtype=bool),
            "c_picks": np.zeros(k, dtype=np.int64), "c_weight": np.zeros(k),
            "c_profit": np.zeros(k), "c_f": np.full(k, empty_f),
        }

    def admit(self, rows: np.ndarray, *args) -> None:
        """Add one packing's attempts as fresh lanes in ``rows``; ``args`` as
        for :meth:`_fresh`."""
        for name, value in self._fresh(rows, *args).items():
            setattr(self, name, np.concatenate((getattr(self, name), value)))

    def keep(self, mask: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[mask])
