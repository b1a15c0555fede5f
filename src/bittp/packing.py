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
one step adds the next item of every lane where it fits, and re-checks the
lanes that are due.  Whole packings are in flight at a time, as many as
``LANE_CELLS`` allows, and the next packing starts as soon as the lanes of
one have finished.

Most re-checks are decided without pricing a travel time.  Picks only make
the tour slower, and by how much is bounded from the weight each added item
hauls over its carry distance (:func:`recheck_bounds`).  Where the bounds,
widened by the rounding of both computed objectives, put the new objective
surely above or surely not above the committed one, the re-check commits or
rolls back at once; only the rest are priced, in one row-wise pass per step
together with any committed plan whose objective is not yet known.

The plans, and the state the random generator is left in, are identical to
running the attempts one after another: the exponents are drawn in the same
order, every priced objective is the same floating-point computation on the
same pickup weights, a decided re-check goes the way the priced one would,
and ties between attempts go to the earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluation import PackingPlan, Tour, TourContext, scalarized
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
    """Item scores under each row (a, b, c) of ``exponents``, normalized to sum to 1.

    An item carried no distance scores inf, or NaN if its profit is 0 too;
    :func:`_descending` ranks those first and last.  Both are intended
    values, so the division reports no warning.
    """
    total = exponents[:, 0] + exponents[:, 1] + exponents[:, 2]
    a, b, c = (exponents[:, j, None] / total[:, None] for j in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
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

    A due re-check prices nothing when :func:`recheck_bounds` decides it.
    A commit made that way leaves the committed objective unknown until a
    later undecided re-check, or the lane's end, prices that plan.
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
    weights, profits = inst.weights, inst.profits
    capacity, rent = inst.capacity, inst.renting_rate
    dist = carry_distances(ctx)
    with np.errstate(over="ignore"):
        haul = weights * dist
    empty_time = ctx.time_from_positions(np.zeros(n))

    packings_in_flight = min(len(alphas), max(1, LANE_CELLS // (attempts * max(n, m))))
    rows = packings_in_flight * attempts
    chunk = max(1, CHUNK_CELLS // max(n, m))
    order = np.empty((rows, m), dtype=np.int32)
    picked = np.zeros((rows, m), dtype=bool)
    order_flat, picked_flat = order.ravel(), picked.ravel()
    free = list(range(rows))

    empty_f = [scalarized(alpha, 0.0, empty_time, rent) for alpha in alphas]
    best_f = list(empty_f)
    best_attempt = [-1] * len(alphas)
    best_items = [np.zeros(0, dtype=np.int32)] * len(alphas)
    s = _Lanes()
    admitted = 0

    def plan_times(lanes: np.ndarray, limits: np.ndarray) -> np.ndarray:
        return _plan_times(ctx, order, picked, s.row[lanes], limits, chunk)

    while True:
        while admitted < len(alphas) and len(free) >= attempts:
            p, alpha = admitted, alphas[admitted]
            admitted += 1
            new = np.array(free[-attempts:])
            del free[-attempts:]
            order[new] = _descending(_score_rows(inst, dist, _draw_exponents(rng, attempts)))
            picked[new] = False
            s.admit(new, m, p, alpha, reeval_period(m, divisor, alpha), empty_f[p])

        done = (s.rank > m) | (s.phi < 1)
        if done.any():
            stale = np.flatnonzero(done & ~s.c_exact)
            if stale.size:
                times = plan_times(stale, s.c_picks[stale])
                s.c_f[stale] = scalarized(s.alpha[stale], s.c_profit[stale], times, rent)
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
        s.haul += np.where(fit, haul[items], 0.0)
        picked_flat[cell] = fit
        s.pending |= fit

        due = np.flatnonzero(s.pending & (s.rank % s.phi == 0))
        if due.size:
            better, worse = recheck_bounds(
                inst, empty_time, s.alpha[due], s.profit[due], s.haul[due],
                s.weight[due], s.c_profit[due], s.c_weight[due],
            )
            undecided = ~(better | worse)
            priced = due[undecided]
            if priced.size:
                # Price the undecided plans, and the committed plans they are
                # compared with where a bound-made commit left those unknown.
                stale = priced[~s.c_exact[priced]]
                times = plan_times(
                    np.concatenate((priced, stale)),
                    np.concatenate((s.rank[priced], s.c_picks[stale])),
                )
                s.c_f[stale] = scalarized(s.alpha[stale], s.c_profit[stale], times[priced.size:], rent)
                f = scalarized(s.alpha[priced], s.profit[priced], times[: priced.size], rent)
                gain = f > s.c_f[priced]
                better[undecided] = gain
                s.c_f[priced[gain]] = f[gain]
                s.c_exact[priced] = True
            up = due[better]
            s.c_exact[due[better & ~undecided]] = False
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
            s.haul[due] = 0.0
            s.pending[due] = False
        s.rank += 1

    plans = []
    for items in best_items:
        selected = np.zeros(m, dtype=bool)
        selected[items] = True
        plans.append(PackingPlan(inst, selected))
    return plans


def recheck_bounds(
    inst: ProblemInstance,
    empty_time: float,
    alpha: np.ndarray,
    profit: np.ndarray,
    haul: np.ndarray,
    weight: np.ndarray,
    c_profit: np.ndarray,
    c_weight: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-checks decided without pricing: masks of the lanes whose new plan
    surely beats the committed one, and of those it surely does not.

    A lane's new plan adds picks to its committed plan; ``haul`` is the sum
    of weight * carry distance over those picks, ``profit``/``weight`` and
    ``c_profit``/``c_weight`` the totals of the new and committed plans, and
    ``empty_time`` the travel time of the empty plan.  "Beats" means the
    objective ``scalarized`` computes from ``TourContext`` row times, with
    its rounding, is strictly higher, so a decided lane goes the way the
    priced re-check would.  Lanes in neither mask must be priced.

    Derivation.  Let s be the speed slope and v(w) = max(v_max - s w, v_min)
    the speed at carried weight w.  Each leg i of length d_i is walked at
    v(o_i) under the committed plan and v(o_i + e_i) under the new one,
    where o_i <= W_c (committed weight) and o_i + e_i <= W_n (new weight).
    As 0 <= v(o) - v(o + e) <= s e and both speeds lie in [v(W_n), v_max],

        s e / v_max**2  <=  1/v(o + e) - 1/v(o)  <=  s e / (v(W_c) v(W_n)),

    except that the lower bound fails by at most the clamp at v_min, which
    rounding in s can reach just below the capacity: by at most
    (n + m + 2) 2**-53 v_max in speed, so (n + m + 2) 2**-53 T_0 in total
    for the empty plan's time T_0.  An added item of weight w at position p
    adds w to e_i for every leg i >= p, whose lengths sum to its carry
    distance, so summing d_i times the bounds over the legs gives, with
    X = ``haul``,

        L = s X / v_max**2  <=  T_n - T_c  <=  U = s X / (v(W_c) v(W_n)).

    With a = (1 - alpha) R and P = alpha * profit, the new objective
    exceeds the committed one by dP - a (T_n - T_c), where dP = P_n - P_c,
    so it is surely higher if dP - a U > M and surely not if dP - a L < -M,
    for M at least the rounding error of the two computed objectives and of
    this test.  A computed row time sums n legs over speeds from pickup
    weights summed from at most m items, so it is within
    (2n + m + 4) 2**-53 (v_max / v_min) of the real one, relative; v(W)
    and X here carry errors of the same kind, L and U relative errors below
    (n + m + 8) 2**-53 (v_max / v_min), and the subtractions of the
    objectives and of the test a few 2**-53 of P_n + P_c + a (T_n + T_c).
    Both times are at most T_up = T_0 v_max / v(W_n), so

        M = eps (P_n + P_c + a T_up + a (L + U)),
        eps = 16 (n + m + 16) (v_max / v_min) 2**-53

    covers all of it with room to spare.  Legs are whole numbers, so T_0 is
    0 (and then X is too) or at least 1 / v_max, and underflow in L or U
    stays far inside M.  An overflow makes a bound or M inf or NaN, and
    every comparison with it leaves the lane undecided.
    """
    v_max, v_min = inst.max_speed, inst.min_speed
    slope = (v_max - v_min) / inst.capacity
    eps = 16.0 * (inst.n + inst.m + 16) * (v_max / v_min) * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        v_now = np.maximum(v_max - slope * weight, v_min)
        v_commit = np.maximum(v_max - slope * c_weight, v_min)
        lower = slope / (v_max * v_max) * haul
        upper = slope * haul / (v_commit * v_now)
        a = (1.0 - alpha) * inst.renting_rate
        p_new, p_commit = alpha * profit, alpha * c_profit
        gain = p_new - p_commit
        t_up = empty_time * v_max / v_now
        margin = eps * (p_new + p_commit + a * t_up + a * (lower + upper))
        return gain - a * upper > margin, gain - a * lower < -margin


def _draw_exponents(rng: np.random.Generator, attempts: int) -> np.ndarray:
    """Three uniform draws per attempt, redrawn while all three are zero."""
    out = np.empty((attempts, 3))
    for i in range(attempts):
        draws = rng.random(3)
        while draws.sum() == 0.0:
            draws = rng.random(3)
        out[i] = draws
    return out


def _plan_times(
    ctx: TourContext,
    order: np.ndarray,
    picked: np.ndarray,
    rows: np.ndarray,
    limits: np.ndarray,
    chunk: int,
) -> np.ndarray:
    """Travel time of the plan made of the picks of row ``rows[k]`` before
    index ``limits[k]``, one entry per k, priced ``chunk`` rows at a time."""
    if rows.size <= chunk:
        return ctx.row_times(_pickup_weights(ctx, order, picked, rows, limits))
    return np.concatenate([
        ctx.row_times(_pickup_weights(ctx, order, picked, rows[i : i + chunk], limits[i : i + chunk]))
        for i in range(0, rows.size, chunk)
    ])


def _pickup_weights(
    ctx: TourContext,
    order: np.ndarray,
    picked: np.ndarray,
    rows: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """Weight picked up at each tour position by the picks of row
    ``rows[k]`` before index ``limits[k]``, one row per k.

    The weights are added to zeros in rank order (``np.bincount`` adds in
    input order), the order in which one greedy attempt adds them, so each
    row equals that attempt's pickup weights bit for bit.
    """
    n, width = ctx.inst.n, limits.max()
    mask = picked[rows, :width]
    if limits.min() < width:
        mask &= np.arange(width) < limits[:, None]
    cells = np.flatnonzero(mask)
    items = order[rows, :width].ravel()[cells]
    flat = np.bincount(
        cells // width * n + ctx.item_pos[items], weights=ctx.inst.weights[items], minlength=rows.size * n
    )
    return flat.reshape(rows.size, n)


class _Lanes:
    """State of the lanes in flight, one array per field.

    ``row`` is a lane's row in the ``(rows, m)`` arrays and ``cell0`` the
    flat offset of that row, less one for the 1-based ``rank`` of the next
    item to analyze.  ``haul`` sums weight * carry distance over the picks
    since the committed plan.  The ``c_`` fields hold the committed plan:
    the picks of the first ``c_picks`` ranks are final, a rollback resumes
    after rank ``max(c_picks, 1)``, and ``c_f`` is its objective where
    ``c_exact`` is set, unknown where it is not.
    """

    __slots__ = (
        "row", "cell0", "packing", "attempt", "alpha",
        "rank", "phi", "weight", "profit", "haul", "pending",
        "c_picks", "c_weight", "c_profit", "c_f", "c_exact",
    )

    def __init__(self) -> None:
        none = np.zeros(0, dtype=np.int64)
        fields = self._fresh(none, m=0, packing=0, alpha=0.0, phi=1, empty_f=0.0)
        for name, value in fields.items():
            setattr(self, name, value)

    @staticmethod
    def _fresh(
        rows: np.ndarray, m: int, packing: int, alpha: float, phi: int, empty_f: float
    ) -> dict[str, np.ndarray]:
        k = rows.size
        return {
            "row": rows, "cell0": rows * m - 1,
            "packing": np.full(k, packing), "attempt": np.arange(k),
            "alpha": np.full(k, alpha),
            "rank": np.ones(k, dtype=np.int64), "phi": np.full(k, phi),
            "weight": np.zeros(k), "profit": np.zeros(k), "haul": np.zeros(k),
            "pending": np.zeros(k, dtype=bool),
            "c_picks": np.zeros(k, dtype=np.int64), "c_weight": np.zeros(k),
            "c_profit": np.zeros(k), "c_f": np.full(k, empty_f), "c_exact": np.ones(k, dtype=bool),
        }

    def admit(self, rows: np.ndarray, *args) -> None:
        """Add one packing's attempts as fresh lanes in ``rows``; ``args`` as
        for :meth:`_fresh`."""
        for name, value in self._fresh(rows, *args).items():
            setattr(self, name, np.concatenate((getattr(self, name), value)))

    def keep(self, mask: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[mask])
